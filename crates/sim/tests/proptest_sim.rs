//! Property tests for the simulation substrate.

use loadex_sim::{
    ActorId, EventQueue, Scheduler, SimConfig, SimDuration, SimRng, SimTime, Simulator, SplitMix64,
    StopReason, Welford, World,
};
use proptest::prelude::*;

const ACTORS: u64 = 5;

/// A world that spawns a pseudo-random cascade of events, each a function
/// of `(seed, event id, actor)` only, so two runs that deliver the same
/// sequence spawn the same cascade. One-to-many sends either go in as one
/// fan-out entry or are expanded into one `schedule_at` per destination.
struct Cascade {
    fanout: bool,
    seed: u64,
    /// Request a stop while handling this delivery (1-based), once.
    stop_at: Option<u64>,
    delivered: u64,
    log: Vec<(u64, usize, u64)>,
}

impl Cascade {
    fn new(fanout: bool, seed: u64, stop_at: Option<u64>) -> Self {
        Cascade {
            fanout,
            seed,
            stop_at,
            delivered: 0,
            log: Vec::new(),
        }
    }

    /// `dests` get `ev` at `at`, the way this world sends.
    fn send(
        &self,
        at: SimTime,
        dests: &[ActorId],
        ev: (u64, u8),
        sched: &mut Scheduler<'_, (u64, u8)>,
    ) {
        if self.fanout {
            sched.schedule_fanout_at(at, dests, ev);
        } else {
            for &d in dests {
                sched.schedule_at(at, d, ev);
            }
        }
    }
}

fn dests_from(rng: &mut SplitMix64) -> Vec<ActorId> {
    let n = rng.next_u64() % 5;
    (0..n)
        .map(|_| ActorId((rng.next_u64() % ACTORS) as usize))
        .collect()
}

impl World for Cascade {
    type Event = (u64, u8);

    fn handle(
        &mut self,
        now: SimTime,
        actor: ActorId,
        (id, depth): (u64, u8),
        sched: &mut Scheduler<'_, (u64, u8)>,
    ) {
        self.log.push((now.as_nanos(), actor.index(), id));
        self.delivered += 1;
        if self.stop_at == Some(self.delivered) {
            sched.request_stop();
        }
        if depth == 0 {
            return;
        }
        let mut rng = SplitMix64::new(
            self.seed ^ id.wrapping_mul(0x9E37_79B9) ^ (actor.index() as u64) << 56,
        );
        for _ in 0..rng.next_u64() % 3 {
            // Half the children land at this very instant.
            let delay = match rng.next_u64() % 4 {
                0 | 1 => 0,
                d => d * 7,
            };
            let child = (rng.next_u64(), depth - 1);
            if rng.next_u64().is_multiple_of(3) {
                let to = ActorId((rng.next_u64() % ACTORS) as usize);
                sched.schedule_in(SimDuration::from_nanos(delay), to, child);
            } else {
                let dests = dests_from(&mut rng);
                self.send(now + SimDuration::from_nanos(delay), &dests, child, sched);
            }
        }
    }
}

/// Everything observable about a run: deliveries, and each stop with the
/// clock and step count at that point.
type Trace = (Vec<(u64, usize, u64)>, Vec<(StopReason, u64, u64)>);

/// Seed the initial sends, run, and after a requested stop resume once.
fn run_cascade(
    fanout: bool,
    seed: u64,
    initial: &[(u64, u64)],
    config: SimConfig,
    stop_at: Option<u64>,
) -> Trace {
    let mut sim = Simulator::new(config);
    let mut rng = SplitMix64::new(seed);
    for &(t, id) in initial {
        let dests = dests_from(&mut rng);
        if fanout {
            sim.schedule_fanout_at(SimTime(t), &dests, (id, 3));
        } else {
            for &d in &dests {
                sim.schedule_at(SimTime(t), d, (id, 3));
            }
        }
    }
    let mut world = Cascade::new(fanout, seed, stop_at);
    let mut stops = Vec::new();
    loop {
        let reason = sim.run(&mut world);
        stops.push((reason, sim.now().as_nanos(), sim.processed()));
        if reason != StopReason::Requested {
            break;
        }
    }
    (world.log, stops)
}

proptest! {
    /// The calendar pops events in nondecreasing time order, FIFO at ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(SimTime(t), seq);
        }
        let mut popped = Vec::new();
        while let Some((t, seq)) = q.pop() {
            popped.push((t, seq));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at equal times");
            }
        }
    }

    /// `next_below` is always in range and deterministic per seed.
    #[test]
    fn rng_bounds_and_determinism(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = a.next_below(n);
            prop_assert!(x < n);
            prop_assert_eq!(x, b.next_below(n));
        }
    }

    /// Welford statistics agree with naive two-pass computation.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.min(), min);
        prop_assert_eq!(w.max(), max);
    }

    /// A fan-out entry delivers exactly as its destinations would one by one
    /// from back-to-back `schedule_at` calls: same `(time, actor, event)`
    /// sequence, including events scheduled at the same instant from inside
    /// the fan-out, and the same stop when `request_stop`, `max_events` or
    /// the horizon cuts a fan-out short.
    #[test]
    fn fanout_delivers_like_expanded_single_entries(
        seed in any::<u64>(),
        initial in prop::collection::vec((0u64..30, any::<u64>()), 1..8),
        max_events in prop::option::of(0u64..120),
        horizon in prop::option::of(0u64..60),
        stop_at in prop::option::of(1u64..120),
    ) {
        let config = SimConfig {
            horizon: horizon.map_or(SimTime::MAX, SimTime),
            max_events: max_events.unwrap_or(u64::MAX),
        };
        let expanded = run_cascade(false, seed, &initial, config, stop_at);
        let fanned = run_cascade(true, seed, &initial, config, stop_at);
        prop_assert_eq!(fanned, expanded);
    }

    /// Splitting an RNG yields streams that do not echo the parent.
    #[test]
    fn rng_split_streams_differ(seed in any::<u64>()) {
        let mut parent = SimRng::seed_from_u64(seed);
        let mut child = parent.split();
        let same = (0..64).filter(|_| parent.next_u64() == child.next_u64()).count();
        prop_assert!(same < 8);
    }
}
