//! The simulation run loop.
//!
//! A [`World`] owns all model state (processes, network, application). The
//! [`Simulator`] owns the clock and the calendar, and repeatedly delivers the
//! earliest event to the world. The world reacts by scheduling further events
//! through the [`Scheduler`] handle it is given.
//!
//! Splitting `World` from `Scheduler` sidesteps the usual borrow tangle: the
//! world may freely schedule new events while handling one, because the
//! calendar is never borrowed by the world itself.
//!
//! # Fan-out entries
//!
//! [`Scheduler::schedule_fanout_at`] stores one event for many actors as a
//! single calendar entry, with its destinations as a [`Dests`] (a rank range
//! or a shared set is never expanded into a list). When it pops, the
//! simulator hands the whole entry to the world in one
//! [`World::handle_fanout`] call, which takes the destinations one at a
//! time from [`Recipients`]; each one taken is one processed step. The
//! provided `handle_fanout` calls [`World::handle`] once per destination; a
//! world may override it to treat the destinations in one loop, reading the
//! event by reference.
//!
//! Either way the order is exactly that of the same destinations as
//! separate [`Scheduler::schedule_at`] calls made back to back: those
//! entries share a time and sit back to back in that instant's FIFO bucket,
//! so no other entry can pop between them, and anything scheduled while
//! they are handled joins the bucket behind them and pops after the last of
//! them. A stop requested part-way, or the `max_events` limit reached
//! part-way, ends the iteration; the undelivered destinations stay pending
//! and the next [`Simulator::step`] resumes them before popping the
//! calendar again.

use crate::dests::{Cursor, Dests};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;

/// Identifies an actor (simulated process) inside a world.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub usize);

impl ActorId {
    /// The actor's index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The calendar's entry type.
type Calendar<E> = EventQueue<(Dests, E)>;

/// Push `event` for `dests` at `at`, unless there is no destination.
fn push_fanout<E>(queue: &mut Calendar<E>, at: SimTime, dests: Dests, event: E) {
    if !dests.is_empty() {
        queue.push(at, (dests, event));
    }
}

/// Handle through which a [`World`] schedules future events.
pub struct Scheduler<'a, E> {
    queue: &'a mut Calendar<E>,
    now: SimTime,
    stop_requested: &'a Cell<bool>,
}

impl<'a, E> Scheduler<'a, E> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` for `actor` at `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, actor: ActorId, event: E) {
        self.queue
            .push(self.now + delay, (Dests::One(actor), event));
    }

    /// Schedule `event` for `actor` at absolute time `at`. Events scheduled
    /// in the past are clamped to "now" (they run after already-pending
    /// events at the current instant).
    pub fn schedule_at(&mut self, at: SimTime, actor: ActorId, event: E) {
        self.queue
            .push(at.max(self.now), (Dests::One(actor), event));
    }

    /// Schedule `event` for each of `dests`, in that order, at absolute time
    /// `at` (clamped to "now" like [`Scheduler::schedule_at`]), as one
    /// calendar entry. Delivery is the same as one `schedule_at` per
    /// destination made back to back; see the [module docs](self).
    pub fn schedule_fanout_at(&mut self, at: SimTime, dests: Dests, event: E) {
        push_fanout(self.queue, at.max(self.now), dests, event);
    }

    /// Ask the simulator to stop after the current event completes (within
    /// a fan-out entry: after the current destination).
    pub fn request_stop(&mut self) {
        self.stop_requested.set(true);
    }
}

/// The undelivered destinations of a fan-out entry, handed to
/// [`World::handle_fanout`]. Each destination it yields counts as one
/// processed step; it yields nothing more once a stop has been requested or
/// the simulator's `max_events` is reached, and the rest then stay pending.
pub struct Recipients<'a> {
    dests: &'a Dests,
    /// Where the next destination is.
    cursor: &'a mut Cursor,
    processed: &'a mut u64,
    max_events: u64,
    stop_requested: &'a Cell<bool>,
}

impl Iterator for Recipients<'_> {
    type Item = ActorId;

    #[inline]
    fn next(&mut self) -> Option<ActorId> {
        if self.stop_requested.get() || *self.processed >= self.max_events {
            return None;
        }
        let actor = self.dests.next(self.cursor)?;
        self.cursor.taken += 1;
        *self.processed += 1;
        Some(actor)
    }
}

impl Recipients<'_> {
    /// How many destinations of the entry have been yielded, by this call
    /// and by any earlier one that a stop cut short.
    #[inline]
    pub fn taken(&self) -> usize {
        self.cursor.taken
    }

    /// The destinations yielded since [`Recipients::taken`] read `from`, in
    /// order: the entry's own [`Dests`] when that is all of them (a fan-out
    /// delivered in one call), else a list of them.
    pub fn yielded_since(&self, from: usize) -> Dests {
        if from == 0 && self.cursor.taken == self.dests.len() {
            self.dests.clone()
        } else {
            let span = self.dests.iter().skip(from).take(self.cursor.taken - from);
            Dests::List(span.collect())
        }
    }
}

/// The model: owns all state, reacts to events.
pub trait World {
    /// Event type delivered to actors.
    type Event;

    /// Handle one event addressed to `actor` at time `now`.
    fn handle(
        &mut self,
        now: SimTime,
        actor: ActorId,
        event: Self::Event,
        sched: &mut Scheduler<'_, Self::Event>,
    );

    /// Handle a fan-out entry: `event`, at time `now`, for each actor that
    /// `recipients` yields, in that order. An override must treat each
    /// yielded actor exactly as [`World::handle`] would, and should take
    /// them until the iterator ends; the provided method calls `handle` on
    /// a copy of the event for each. See the [module docs](self).
    fn handle_fanout(
        &mut self,
        now: SimTime,
        recipients: &mut Recipients<'_>,
        event: &Self::Event,
        sched: &mut Scheduler<'_, Self::Event>,
    ) where
        Self::Event: Clone,
    {
        for actor in recipients {
            self.handle(now, actor, event.clone(), sched);
        }
    }

    /// Called once when the calendar drains or the horizon/stop is reached.
    fn on_finish(&mut self, _now: SimTime) {}
}

/// Configuration for a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Hard horizon: the run stops when the clock would pass this time.
    pub horizon: SimTime,
    /// Safety valve against runaway models: maximum number of events
    /// processed before the run aborts with an error.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: SimTime::MAX,
            max_events: u64::MAX,
        }
    }
}

/// Why a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The calendar drained: no more events.
    Drained,
    /// The world requested a stop.
    Requested,
    /// The horizon was reached.
    Horizon,
    /// `max_events` was exceeded — almost always a model bug (livelock).
    EventLimit,
}

/// The discrete-event simulator: clock + calendar + run loop.
///
/// ```
/// use loadex_sim::{ActorId, Scheduler, SimConfig, SimDuration, SimTime, Simulator, World};
///
/// // A world where each actor forwards a counter to the next until zero.
/// struct Ring { n: usize, hops: u32 }
/// impl World for Ring {
///     type Event = u32;
///     fn handle(&mut self, _now: SimTime, a: ActorId, ev: u32, s: &mut Scheduler<'_, u32>) {
///         self.hops += 1;
///         if ev > 0 {
///             let next = ActorId((a.index() + 1) % self.n);
///             s.schedule_in(SimDuration::from_micros(10), next, ev - 1);
///         }
///     }
/// }
///
/// let mut sim = Simulator::new(SimConfig::default());
/// sim.schedule_at(SimTime::ZERO, ActorId(0), 9);
/// let mut world = Ring { n: 3, hops: 0 };
/// sim.run(&mut world);
/// assert_eq!(world.hops, 10);
/// assert_eq!(sim.now().as_nanos(), 9 * 10_000);
/// ```
pub struct Simulator<E> {
    queue: Calendar<E>,
    /// The fan-out entry popped last, while destinations remain.
    fanout: Option<Fanout<E>>,
    now: SimTime,
    processed: u64,
    config: SimConfig,
}

/// A fan-out entry part way through delivery.
struct Fanout<E> {
    time: SimTime,
    dests: Dests,
    /// Where the next destination is.
    cursor: Cursor,
    event: E,
}

impl<E> Simulator<E> {
    /// Create a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator {
            queue: EventQueue::new(),
            fanout: None,
            now: SimTime::ZERO,
            processed: 0,
            config,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far (a fan-out entry counts one per
    /// destination).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule an initial event before the run starts (or between steps).
    pub fn schedule_at(&mut self, at: SimTime, actor: ActorId, event: E) {
        self.queue
            .push(at.max(self.now), (Dests::One(actor), event));
    }

    /// Schedule `event` for each of `dests` before the run starts (or
    /// between steps), as one calendar entry; see
    /// [`Scheduler::schedule_fanout_at`].
    pub fn schedule_fanout_at(&mut self, at: SimTime, dests: Dests, event: E) {
        push_fanout(&mut self.queue, at.max(self.now), dests, event);
    }
}

impl<E: Clone> Simulator<E> {
    /// Deliver the next calendar entry to the world — or, while a fan-out
    /// entry is part way through, the rest of it — or say why the run is
    /// over. An entry past the horizon stays pending.
    pub fn step<W: World<Event = E>>(&mut self, world: &mut W) -> Result<(), StopReason> {
        if self.processed >= self.config.max_events {
            return Err(StopReason::EventLimit);
        }
        let stop = Cell::new(false);
        let Simulator {
            queue,
            fanout,
            now,
            processed,
            config,
        } = self;
        if fanout.is_none() {
            match queue.peek_time() {
                None => return Err(StopReason::Drained),
                Some(time) if time > config.horizon => return Err(StopReason::Horizon),
                Some(_) => {}
            }
            let (time, (dests, event)) = queue.pop().expect("peeked");
            debug_assert!(time >= *now, "time went backwards");
            *now = time;
            match dests {
                Dests::One(actor) => {
                    *processed += 1;
                    let mut sched = Scheduler {
                        queue,
                        now: time,
                        stop_requested: &stop,
                    };
                    world.handle(time, actor, event, &mut sched);
                }
                dests => {
                    *fanout = Some(Fanout {
                        time,
                        dests,
                        cursor: Cursor::default(),
                        event,
                    });
                }
            }
        }
        if let Some(f) = fanout {
            let mut sched = Scheduler {
                queue,
                now: f.time,
                stop_requested: &stop,
            };
            let mut recipients = Recipients {
                dests: &f.dests,
                cursor: &mut f.cursor,
                processed,
                max_events: config.max_events,
                stop_requested: &stop,
            };
            world.handle_fanout(f.time, &mut recipients, &f.event, &mut sched);
            if f.cursor.taken == f.dests.len() {
                *fanout = None;
            }
        }
        if stop.get() {
            Err(StopReason::Requested)
        } else {
            Ok(())
        }
    }

    /// Run until the calendar drains, the horizon passes, the world requests
    /// a stop, or the event limit trips.
    pub fn run<W: World<Event = E>>(&mut self, world: &mut W) -> StopReason {
        let reason = loop {
            match self.step(world) {
                Ok(()) => {}
                Err(r) => break r,
            }
        };
        world.on_finish(self.now);
        reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world where each actor, upon receiving `n`, schedules `n-1` for the
    /// next actor until 0. Verifies clock progression and delivery order.
    struct Relay {
        log: Vec<(u64, usize, u32)>,
        nprocs: usize,
    }

    impl World for Relay {
        type Event = u32;
        fn handle(
            &mut self,
            now: SimTime,
            actor: ActorId,
            ev: u32,
            sched: &mut Scheduler<'_, u32>,
        ) {
            self.log.push((now.as_nanos(), actor.index(), ev));
            if ev > 0 {
                let next = ActorId((actor.index() + 1) % self.nprocs);
                sched.schedule_in(SimDuration::from_nanos(10), next, ev - 1);
            }
        }
    }

    #[test]
    fn relay_chain_runs_to_completion() {
        let mut sim = Simulator::new(SimConfig::default());
        let mut w = Relay {
            log: vec![],
            nprocs: 3,
        };
        sim.schedule_at(SimTime::ZERO, ActorId(0), 5);
        let reason = sim.run(&mut w);
        assert_eq!(reason, StopReason::Drained);
        assert_eq!(
            w.log,
            vec![
                (0, 0, 5),
                (10, 1, 4),
                (20, 2, 3),
                (30, 0, 2),
                (40, 1, 1),
                (50, 2, 0)
            ]
        );
        assert_eq!(sim.processed(), 6);
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim = Simulator::new(SimConfig {
            horizon: SimTime(25),
            ..Default::default()
        });
        let mut w = Relay {
            log: vec![],
            nprocs: 2,
        };
        sim.schedule_at(SimTime::ZERO, ActorId(0), 100);
        let reason = sim.run(&mut w);
        assert_eq!(reason, StopReason::Horizon);
        assert!(w.log.len() <= 3);
    }

    #[test]
    fn event_limit_detects_livelock() {
        struct Livelock;
        impl World for Livelock {
            type Event = ();
            fn handle(&mut self, _: SimTime, a: ActorId, _: (), s: &mut Scheduler<'_, ()>) {
                s.schedule_in(SimDuration::ZERO, a, ());
            }
        }
        let mut sim = Simulator::new(SimConfig {
            max_events: 1000,
            ..Default::default()
        });
        sim.schedule_at(SimTime::ZERO, ActorId(0), ());
        assert_eq!(sim.run(&mut Livelock), StopReason::EventLimit);
    }

    #[test]
    fn world_can_request_stop() {
        struct StopAt3(u32);
        impl World for StopAt3 {
            type Event = ();
            fn handle(&mut self, _: SimTime, a: ActorId, _: (), s: &mut Scheduler<'_, ()>) {
                self.0 += 1;
                if self.0 == 3 {
                    s.request_stop();
                } else {
                    s.schedule_in(SimDuration::from_nanos(1), a, ());
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::default());
        sim.schedule_at(SimTime::ZERO, ActorId(0), ());
        let mut w = StopAt3(0);
        assert_eq!(sim.run(&mut w), StopReason::Requested);
        assert_eq!(w.0, 3);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        struct PastScheduler {
            fired: Vec<u64>,
        }
        impl World for PastScheduler {
            type Event = u8;
            fn handle(&mut self, now: SimTime, a: ActorId, ev: u8, s: &mut Scheduler<'_, u8>) {
                self.fired.push(now.as_nanos());
                if ev == 0 {
                    // Attempt to schedule "in the past".
                    s.schedule_at(SimTime::ZERO, a, 1);
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::default());
        sim.schedule_at(SimTime(100), ActorId(0), 0);
        let mut w = PastScheduler { fired: vec![] };
        sim.run(&mut w);
        assert_eq!(w.fired, vec![100, 100]);
    }

    #[test]
    fn same_instant_fifo_across_actors() {
        struct Record(Vec<usize>);
        impl World for Record {
            type Event = ();
            fn handle(&mut self, _: SimTime, a: ActorId, _: (), _: &mut Scheduler<'_, ()>) {
                self.0.push(a.index());
            }
        }
        let mut sim = Simulator::new(SimConfig::default());
        for i in [4, 2, 7, 0] {
            sim.schedule_at(SimTime(5), ActorId(i), ());
        }
        let mut w = Record(vec![]);
        sim.run(&mut w);
        assert_eq!(w.0, vec![4, 2, 7, 0], "insertion order preserved at ties");
    }

    #[test]
    fn fanout_delivers_each_destination_before_later_entries() {
        // Each delivery of event 1 schedules event 2 for itself at the same
        // instant; those must all wait for the rest of the fan-out.
        struct Log(Vec<(usize, u8)>);
        impl World for Log {
            type Event = u8;
            fn handle(&mut self, _: SimTime, a: ActorId, ev: u8, s: &mut Scheduler<'_, u8>) {
                self.0.push((a.index(), ev));
                if ev == 1 {
                    s.schedule_in(SimDuration::ZERO, a, 2);
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::default());
        sim.schedule_at(SimTime(5), ActorId(9), 0);
        sim.schedule_fanout_at(
            SimTime(5),
            vec![ActorId(3), ActorId(1), ActorId(2)].into(),
            1,
        );
        sim.schedule_fanout_at(SimTime(5), vec![].into(), 7);
        sim.schedule_fanout_at(SimTime(5), vec![ActorId(8)].into(), 3);
        let mut w = Log(vec![]);
        assert_eq!(sim.run(&mut w), StopReason::Drained);
        assert_eq!(
            w.0,
            vec![
                (9, 0),
                (3, 1),
                (1, 1),
                (2, 1),
                (8, 3),
                (3, 2),
                (1, 2),
                (2, 2)
            ]
        );
        assert_eq!(sim.processed(), 8, "one step per destination");
    }
}
