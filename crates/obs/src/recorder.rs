//! Event sinks.
//!
//! A [`Recorder`] is what instrumentation sites hold. It is a thin cloneable
//! handle: **disabled** recorders carry no allocation and every emission is
//! a single `Option` discriminant check (measured < 2% overhead on the
//! mechanism micro-benches), while **enabled** recorders share one bounded
//! in-memory log behind a mutex — cheap enough for simulation runs, and
//! thread-safe so the threaded backend's worker and communication threads
//! can emit into one log.

use crate::event::{EventRecord, ProtocolEvent};
use loadex_sim::{ActorId, SimTime};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default event capacity for [`Recorder::enabled`]: large enough for the
/// paper's experiments, bounded so a runaway run cannot exhaust memory.
pub const DEFAULT_CAPACITY: usize = 4_000_000;

struct EventLog {
    events: VecDeque<EventRecord>,
    capacity: usize,
    dropped: u64,
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
    /// dropped first, with a drop count). `capacity == 0` is equivalent to
    /// [`Recorder::disabled`].
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return Self::disabled();
        }
        Recorder {
            inner: Some(Arc::new(Mutex::new(EventLog {
                events: VecDeque::new(),
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
            let mut log = log.lock().unwrap();
            if log.events.len() == log.capacity {
                log.events.pop_front();
                log.dropped += 1;
            }
            log.events.push_back(EventRecord { time, actor, event });
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
        assert_eq!(evs[0].actor, ActorId(1));
        assert!(r2.is_empty(), "take drains the shared log");
    }

    #[test]
    fn capacity_drops_oldest() {
        let r = Recorder::with_capacity(2);
        for n in 0..5u64 {
            r.emit(SimTime(n), ActorId(0), ProtocolEvent::TaskEnd { node: n });
        }
        assert_eq!(r.dropped(), 3);
        let evs = r.take();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].time, SimTime(3));
    }

    #[test]
    fn emit_with_skips_build_when_disabled() {
        let r = Recorder::disabled();
        r.emit_with(SimTime(0), ActorId(0), || panic!("must not be built"));
    }
}
