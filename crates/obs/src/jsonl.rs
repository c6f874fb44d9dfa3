//! JSONL export: one event per line, in emission order.
//!
//! The format is deliberately flat and stable (`{"t":..,"p":..,"ev":..,
//! ...payload}`) so runs can be diffed and grepped. A deterministic
//! simulation produces byte-identical JSONL for the same seed (covered by
//! the golden test `tests/obs_golden.rs`).

use crate::event::EventRecord;
use serde::Serialize;
use std::io::{self, Write};

/// Bytes of serialized records gathered before each hand-off to the writer.
const FLUSH_BYTES: usize = 64 * 1024;

/// Write events as JSONL to `w`: each line one JSON object, `\n` terminated.
///
/// Records are serialized into one reused buffer that is handed to `w`
/// every ~64 KiB, so memory stays flat however long the stream is.
pub fn write_to(events: &[EventRecord], w: &mut impl Write) -> io::Result<()> {
    let mut buf = String::with_capacity(2 * FLUSH_BYTES);
    for ev in events {
        ev.serialize_json(&mut buf);
        buf.push('\n');
        if buf.len() >= FLUSH_BYTES {
            w.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    w.write_all(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MsgKind, ProtocolEvent};
    use loadex_sim::{ActorId, SimTime};

    fn render(events: &[EventRecord]) -> String {
        let mut out = Vec::new();
        write_to(events, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// More records than fit in several flushes of the buffer.
    fn long_stream() -> Vec<EventRecord> {
        (0..10_000u64)
            .map(|n| {
                EventRecord::new(
                    SimTime(n * 1_000),
                    ActorId(n as usize % 7),
                    ProtocolEvent::state_send(
                        Some(ActorId(n as usize % 5)),
                        MsgKind::UpdateDelta,
                        32,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn one_object_per_line() {
        let events = vec![
            EventRecord::new(SimTime(1), ActorId(0), ProtocolEvent::Blocked),
            EventRecord::new(SimTime(2), ActorId(1), ProtocolEvent::Resumed),
        ];
        assert_eq!(
            render(&events),
            "{\"t\":1,\"p\":0,\"ev\":\"blocked\"}\n{\"t\":2,\"p\":1,\"ev\":\"resumed\"}\n"
        );
    }

    #[test]
    fn empty_log_is_empty_string() {
        assert_eq!(render(&[]), "");
    }

    #[test]
    fn output_spanning_several_flushes_is_each_record_in_order() {
        let events = long_stream();
        let expected: String = events.iter().map(|e| e.to_json() + "\n").collect();
        assert!(
            expected.len() > 3 * FLUSH_BYTES,
            "must span several flushes"
        );
        assert_eq!(render(&events), expected);
    }

    /// Accepts one `write` call, then fails every later one.
    struct FailsOnSecondWrite {
        writes: usize,
    }

    impl Write for FailsOnSecondWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.writes >= 2 {
                return Err(io::Error::other("disk full"));
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_error_is_returned() {
        let mut w = FailsOnSecondWrite { writes: 0 };
        let err = write_to(&long_stream(), &mut w).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(w.writes, 2, "the error stops the export");
    }
}
