//! Chrome `trace_event` export.
//!
//! Produces a JSON object loadable by `chrome://tracing` and
//! <https://ui.perfetto.dev>: per-process Busy/Blocked/Idle spans on
//! track `tid = rank`, snapshot intervals (from paired
//! `SnapshotStart`/`SnapshotEnd` events) on track `tid = 1000 + rank`,
//! and instant markers for completed scheduling decisions. Timestamps are
//! simulation nanoseconds converted to the format's microseconds.

use crate::event::{EventRecord, ProtocolEvent};
use crate::span::spans_from_events;
use loadex_sim::SimTime;
use serde::ser::JsonMap;
use std::collections::HashMap;
use std::io::{self, Write};

/// Offset added to a rank for its snapshot-interval track, keeping it next
/// to — but distinct from — the activity track in the viewer.
const SNAPSHOT_TID_OFFSET: u64 = 1000;

fn us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1000.0
}

fn write_meta(out: &mut String, tid: u64, thread_name: &str, sort_index: u64) {
    let mut ev = JsonMap::new(out);
    ev.field("name", "thread_name")
        .field("ph", "M")
        .field("pid", &0u64)
        .field("tid", &tid)
        .field_with("args", |out| {
            let mut args = JsonMap::new(out);
            args.field("name", thread_name);
            args.end();
        });
    ev.end();
    out.push(','); // two metadata records share one array slot
    let mut ev = JsonMap::new(out);
    ev.field("name", "thread_sort_index")
        .field("ph", "M")
        .field("pid", &0u64)
        .field("tid", &tid)
        .field_with("args", |out| {
            let mut args = JsonMap::new(out);
            args.field("sort_index", &sort_index);
            args.end();
        });
    ev.end();
}

fn write_complete(
    out: &mut String,
    name: &str,
    cat: &str,
    tid: u64,
    start: SimTime,
    end: SimTime,
    args: impl FnOnce(&mut JsonMap<'_>),
) {
    let mut ev = JsonMap::new(out);
    ev.field("name", name)
        .field("cat", cat)
        .field("ph", "X")
        .field("ts", &us(start))
        .field(
            "dur",
            &us(SimTime(end.as_nanos().saturating_sub(start.as_nanos()))),
        )
        .field("pid", &0u64)
        .field("tid", &tid)
        .field_with("args", |out| {
            let mut map = JsonMap::new(out);
            args(&mut map);
            map.end();
        });
    ev.end();
}

fn write_instant(
    out: &mut String,
    name: &str,
    cat: &str,
    tid: u64,
    at: SimTime,
    args: impl FnOnce(&mut JsonMap<'_>),
) {
    let mut ev = JsonMap::new(out);
    ev.field("name", name)
        .field("cat", cat)
        .field("ph", "i")
        .field("s", "t")
        .field("ts", &us(at))
        .field("pid", &0u64)
        .field("tid", &tid)
        .field_with("args", |out| {
            let mut map = JsonMap::new(out);
            args(&mut map);
            map.end();
        });
    ev.end();
}

/// Render an event stream as a Chrome `trace_event` JSON document. The
/// document is built whole: its spans need the entire stream anyway, and it
/// is small next to the JSONL export.
fn render(events: &[EventRecord]) -> String {
    let nprocs = events
        .iter()
        .map(|e| e.actor.index() + 1)
        .max()
        .unwrap_or(0);
    let horizon = events.iter().map(|e| e.time).max().unwrap_or(SimTime::ZERO);

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, body: &dyn Fn(&mut String)| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        body(out);
    };

    // Track names, so the viewer shows "P3" / "P3 snapshots" not raw tids.
    for rank in 0..nprocs {
        let tid = rank as u64;
        push(&mut out, &|out| {
            write_meta(out, tid, &format!("P{rank}"), 2 * tid);
        });
        push(&mut out, &|out| {
            write_meta(
                out,
                SNAPSHOT_TID_OFFSET + tid,
                &format!("P{rank} snapshots"),
                2 * tid + 1,
            );
        });
    }

    // Activity spans: Busy/Blocked/Idle per process.
    for (rank, spans) in spans_from_events(events, nprocs, horizon)
        .iter()
        .enumerate()
    {
        for span in spans {
            push(&mut out, &|out| {
                write_complete(
                    out,
                    span.state.name(),
                    "activity",
                    rank as u64,
                    span.start,
                    span.end,
                    |_| {},
                );
            });
        }
    }

    // Snapshot intervals and decision markers.
    let mut open: HashMap<(usize, u64), SimTime> = HashMap::new();
    for rec in events {
        let rank = rec.actor.index() as u64;
        match rec.event {
            ProtocolEvent::SnapshotStart { req } => {
                open.entry((rec.actor.index(), req)).or_insert(rec.time);
            }
            ProtocolEvent::SnapshotEnd { req } => {
                if let Some(start) = open.remove(&(rec.actor.index(), req)) {
                    push(&mut out, &|out| {
                        write_complete(
                            out,
                            "snapshot",
                            "snapshot",
                            SNAPSHOT_TID_OFFSET + rank,
                            start,
                            rec.time,
                            |args| {
                                args.field("req", &req);
                            },
                        );
                    });
                }
            }
            ProtocolEvent::ElectionLost { req, winner } => {
                push(&mut out, &|out| {
                    write_instant(
                        out,
                        "election_lost",
                        "snapshot",
                        SNAPSHOT_TID_OFFSET + rank,
                        rec.time,
                        |args| {
                            args.field("req", &req)
                                .field("winner", &(winner.index() as u64));
                        },
                    );
                });
            }
            ProtocolEvent::DecisionComplete { node, slaves } => {
                push(&mut out, &|out| {
                    write_instant(out, "decision", "decision", rank, rec.time, |args| {
                        args.field("node", &node).field("slaves", &slaves);
                    });
                });
            }
            _ => {}
        }
    }

    // Snapshots never finalized (abandoned runs): close them at the horizon
    // so the interval still shows, sorted for deterministic output.
    let mut dangling: Vec<((usize, u64), SimTime)> = open.into_iter().collect();
    dangling.sort_unstable();
    for ((actor, req), start) in dangling {
        push(&mut out, &|out| {
            write_complete(
                out,
                "snapshot (unfinished)",
                "snapshot",
                SNAPSHOT_TID_OFFSET + actor as u64,
                start,
                horizon,
                |args| {
                    args.field("req", &req);
                },
            );
        });
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Write the Chrome trace for `events` to `w`.
pub fn write_to(events: &[EventRecord], w: &mut impl Write) -> io::Result<()> {
    w.write_all(render(events).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use loadex_sim::ActorId;

    fn rec(t: u64, p: usize, event: ProtocolEvent) -> EventRecord {
        EventRecord {
            time: SimTime(t),
            actor: ActorId(p),
            event,
        }
    }

    #[test]
    fn empty_stream_is_valid_wrapper() {
        let s = render(&[]);
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains("\"displayTimeUnit\":\"ms\""));
    }

    #[test]
    fn array_elements_are_comma_separated() {
        let events = vec![
            rec(
                0,
                0,
                ProtocolEvent::TaskStart {
                    node: 1,
                    kind: "master",
                },
            ),
            rec(1_000, 1, ProtocolEvent::TaskEnd { node: 1 }),
        ];
        let s = render(&events);
        // Adjacent objects with no separator would corrupt the JSON array.
        assert!(
            !s.contains("}{"),
            "missing comma between array elements: {s}"
        );
        // Balanced braces: a cheap structural well-formedness check (the
        // exporter emits no string containing a brace).
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close, "unbalanced braces");
    }

    #[test]
    fn spans_and_snapshots_become_complete_events() {
        let events = vec![
            rec(
                0,
                0,
                ProtocolEvent::TaskStart {
                    node: 1,
                    kind: "master",
                },
            ),
            rec(1_000, 0, ProtocolEvent::TaskEnd { node: 1 }),
            rec(2_000, 1, ProtocolEvent::SnapshotStart { req: 7 }),
            rec(5_000, 1, ProtocolEvent::SnapshotEnd { req: 7 }),
        ];
        let s = render(&events);
        assert!(
            s.contains(r#""name":"Busy","cat":"activity","ph":"X","ts":0,"dur":1"#),
            "{s}"
        );
        assert!(
            s.contains(r#""name":"snapshot","cat":"snapshot","ph":"X","ts":2,"dur":3"#),
            "{s}"
        );
        assert!(s.contains(r#""tid":1001"#), "{s}");
        assert!(s.contains(r#"{"name":"P0"}"#), "{s}");
    }

    #[test]
    fn unfinished_snapshot_closes_at_horizon() {
        let events = vec![
            rec(1_000, 0, ProtocolEvent::SnapshotStart { req: 3 }),
            rec(9_000, 0, ProtocolEvent::Blocked),
        ];
        let s = render(&events);
        assert!(s.contains(r#""name":"snapshot (unfinished)""#), "{s}");
        assert!(s.contains(r#""ts":1,"dur":8"#), "{s}");
    }

    #[test]
    fn decisions_are_instants() {
        let events = vec![rec(
            500,
            2,
            ProtocolEvent::DecisionComplete { node: 4, slaves: 3 },
        )];
        let s = render(&events);
        assert!(
            s.contains(r#""name":"decision","cat":"decision","ph":"i""#),
            "{s}"
        );
        assert!(s.contains(r#""node":4,"slaves":3"#), "{s}");
    }
}
