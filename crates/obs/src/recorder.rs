//! Event sinks.
//!
//! A [`Recorder`] is what instrumentation sites hold. It is a thin cloneable
//! handle: **disabled** recorders carry no allocation and every emission is
//! a single `Option` discriminant check, while **enabled** recorders share
//! one bounded in-memory log behind a mutex — cheap enough for simulation
//! runs, and thread-safe so the threaded backend's worker and communication
//! threads can emit into one log. perfbench's `observed-p128` workload
//! reports what an enabled recorder adds to a run (`obs.record_overhead_s`;
//! `python3 perfbench/run.py`, see `perfbench/NOTES.md`).
//!
//! Each held event is one 24-byte [`EventRecord`]: the 12-byte
//! [`ProtocolEvent`], its time and its rank. An enabled log reserves
//! its whole capacity when it is created — [`DEFAULT_CAPACITY`] is 4M
//! events, about 96 MB of virtual memory — so it never grows by copying.
//! The operating system maps those pages only as events land in them, so
//! resident memory counts the events actually held, not the reservation.

use crate::event::{EventRecord, ProtocolEvent};
use loadex_sim::{ActorId, SimTime};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default event capacity for [`Recorder::enabled`]: large enough for the
/// paper's experiments, bounded so a runaway run cannot exhaust memory.
pub const DEFAULT_CAPACITY: usize = 4_000_000;

struct EventLog {
    /// Reserved for `capacity` records when the log is created, so pushes
    /// never reallocate until [`Recorder::take`] hands the buffer out.
    events: VecDeque<EventRecord>,
    capacity: usize,
    dropped: u64,
}

impl EventLog {
    /// Append one record, dropping the oldest when full.
    #[inline]
    fn push(&mut self, rec: EventRecord) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(rec);
    }
}

/// A cloneable handle to an (optional) shared event log.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<EventLog>>>,
}

impl Recorder {
    /// A recorder that drops everything at zero cost.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder with the default capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled recorder keeping at most `capacity` events (oldest are
    /// dropped first, with a drop count). The log's buffer is reserved for
    /// all `capacity` events here (see the module docs). `capacity == 0` is
    /// equivalent to [`Recorder::disabled`].
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return Self::disabled();
        }
        Recorder {
            inner: Some(Arc::new(Mutex::new(EventLog {
                events: VecDeque::with_capacity(capacity),
                capacity,
                dropped: 0,
            }))),
        }
    }

    /// Whether events are being kept. Hot paths may use this to skip
    /// payload construction entirely.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event.
    #[inline]
    pub fn emit(&self, time: SimTime, actor: ActorId, event: ProtocolEvent) {
        if let Some(log) = &self.inner {
            let rec = EventRecord::new(time, actor, event);
            log.lock().unwrap().push(rec);
        }
    }

    /// Record a batch of events that share one stamp, in order, taking the
    /// log's lock once for the whole batch (none for an empty one).
    pub fn emit_all(
        &self,
        time: SimTime,
        actor: ActorId,
        events: impl IntoIterator<Item = ProtocolEvent>,
    ) {
        let Some(log) = &self.inner else {
            return;
        };
        let mut events = events.into_iter().peekable();
        if events.peek().is_none() {
            return;
        }
        let mut log = log.lock().unwrap();
        for event in events {
            log.push(EventRecord::new(time, actor, event));
        }
    }

    /// Record one lazily-built event: `build` only runs when enabled.
    #[inline]
    pub fn emit_with(&self, time: SimTime, actor: ActorId, build: impl FnOnce() -> ProtocolEvent) {
        if self.is_enabled() {
            self.emit(time, actor, build());
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |l| l.lock().unwrap().events.len())
    }

    /// Whether no event is held (also true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events discarded because the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |l| l.lock().unwrap().dropped)
    }

    /// Take all held events out (they are removed from the log, which
    /// gives up its buffer).
    pub fn take(&self) -> Vec<EventRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |l| {
            Vec::from(std::mem::take(&mut l.lock().unwrap().events))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::disabled();
        r.emit(SimTime(0), ActorId(0), ProtocolEvent::Blocked);
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert!(r.take().is_empty());
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let r = Recorder::with_capacity(0);
        assert!(!r.is_enabled());
    }

    #[test]
    fn clones_share_the_log() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r2.emit(SimTime(5), ActorId(1), ProtocolEvent::Resumed);
        assert_eq!(r.len(), 1);
        let evs = r.take();
        assert_eq!(evs[0].actor(), ActorId(1));
        assert!(r2.is_empty(), "take drains the shared log");
    }

    #[test]
    fn capacity_drops_oldest() {
        let r = Recorder::with_capacity(2);
        for n in 0..5u32 {
            r.emit(
                SimTime(n.into()),
                ActorId(0),
                ProtocolEvent::TaskEnd { node: n },
            );
        }
        assert_eq!(r.dropped(), 3);
        let evs = r.take();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].time(), SimTime(3));
    }

    #[test]
    fn emit_all_stamps_the_batch_in_order_and_keeps_the_capacity() {
        let r = Recorder::with_capacity(3);
        r.emit(SimTime(1), ActorId(0), ProtocolEvent::Blocked);
        r.emit_all(
            SimTime(2),
            ActorId(4),
            (0..3u32).map(|node| ProtocolEvent::TaskEnd { node }),
        );
        r.emit_all(SimTime(3), ActorId(4), std::iter::empty());
        assert_eq!(r.dropped(), 1);
        let evs = r.take();
        assert_eq!(
            evs,
            (0..3u32)
                .map(|node| EventRecord::new(
                    SimTime(2),
                    ActorId(4),
                    ProtocolEvent::TaskEnd { node }
                ))
                .collect::<Vec<_>>()
        );
        Recorder::disabled().emit_all(SimTime(0), ActorId(0), [ProtocolEvent::Resumed]);
    }

    #[test]
    fn the_log_is_reserved_up_front() {
        let r = Recorder::with_capacity(1000);
        let reserved = |r: &Recorder| r.inner.as_ref().unwrap().lock().unwrap().events.capacity();
        let before = reserved(&r);
        assert!(before >= 1000);
        for n in 0..1000u32 {
            r.emit(SimTime(0), ActorId(0), ProtocolEvent::TaskEnd { node: n });
        }
        assert_eq!(
            reserved(&r),
            before,
            "filling the log must not reallocate it"
        );
    }

    #[test]
    fn emit_with_skips_build_when_disabled() {
        let r = Recorder::disabled();
        r.emit_with(SimTime(0), ActorId(0), || panic!("must not be built"));
    }
}
