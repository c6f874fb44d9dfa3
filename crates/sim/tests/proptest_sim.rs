//! Property tests for the simulation substrate.

use loadex_sim::{
    ActorId, Backlog, Dests, EventQueue, RankSet, Recipients, Scheduler, SimConfig, SimDuration,
    SimRng, SimTime, Simulator, SplitMix64, StopReason, Welford, World,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

const ACTORS: u64 = 5;

/// A world that spawns a pseudo-random cascade of events, each a function
/// of `(seed, event id, actor)` only, so two runs that deliver the same
/// sequence spawn the same cascade. One-to-many sends either go in as one
/// fan-out entry or are expanded into one `schedule_at` per destination.
/// `Cascade` implements only `handle`, so its fan-out entries go through the
/// provided `World::handle_fanout`; [`Batched`] overrides that method.
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
            sched.schedule_fanout_at(at, dests.to_vec().into(), ev);
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
        ev: (u64, u8),
        sched: &mut Scheduler<'_, (u64, u8)>,
    ) {
        self.deliver(now, actor, &ev, sched);
    }
}

/// A [`Cascade`] whose fan-out entries are handled by an override of
/// `handle_fanout` that reads the event by reference in one loop, instead
/// of the provided one-`handle`-per-destination method.
struct Batched<'a>(&'a mut Cascade);

impl World for Batched<'_> {
    type Event = (u64, u8);

    fn handle(
        &mut self,
        now: SimTime,
        actor: ActorId,
        ev: (u64, u8),
        sched: &mut Scheduler<'_, (u64, u8)>,
    ) {
        self.0.deliver(now, actor, &ev, sched);
    }

    fn handle_fanout(
        &mut self,
        now: SimTime,
        recipients: &mut Recipients<'_>,
        ev: &(u64, u8),
        sched: &mut Scheduler<'_, (u64, u8)>,
    ) {
        for actor in recipients {
            self.0.deliver(now, actor, ev, sched);
        }
    }
}

impl Cascade {
    fn deliver(
        &mut self,
        now: SimTime,
        actor: ActorId,
        &(id, depth): &(u64, u8),
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

/// How a run's one-to-many sends are scheduled and handled.
#[derive(Clone, Copy)]
enum Mode {
    /// One `schedule_at` per destination.
    Expanded,
    /// One fan-out entry, handled by the provided `handle_fanout`.
    Fanout,
    /// One fan-out entry, handled by [`Batched`]'s override.
    Batched,
}

/// Seed the initial sends, run, and after each requested stop resume.
fn run_cascade(
    mode: Mode,
    seed: u64,
    initial: &[(u64, u64)],
    config: SimConfig,
    stop_at: Option<u64>,
) -> Trace {
    let fanout = !matches!(mode, Mode::Expanded);
    let mut sim = Simulator::new(config);
    let mut rng = SplitMix64::new(seed);
    for &(t, id) in initial {
        let dests = dests_from(&mut rng);
        if fanout {
            sim.schedule_fanout_at(SimTime(t), dests.into(), (id, 3));
        } else {
            for &d in &dests {
                sim.schedule_at(SimTime(t), d, (id, 3));
            }
        }
    }
    let mut world = Cascade::new(fanout, seed, stop_at);
    let mut stops = Vec::new();
    loop {
        let reason = match mode {
            Mode::Batched => sim.run(&mut Batched(&mut world)),
            Mode::Expanded | Mode::Fanout => sim.run(&mut world),
        };
        stops.push((reason, sim.now().as_nanos(), sim.processed()));
        if reason != StopReason::Requested {
            break;
        }
    }
    (world.log, stops)
}

/// Distinct destinations among `0..n` of every [`Dests`] form, drawn from
/// `rng`; never empty.
fn random_dests(rng: &mut SplitMix64, n: usize) -> Dests {
    let pick = |rng: &mut SplitMix64| ActorId((rng.next_u64() % n as u64) as usize);
    match rng.next_u64() % 4 {
        0 => Dests::One(pick(rng)),
        1 if n > 1 => Dests::AllBut {
            n,
            except: pick(rng),
        },
        2 => {
            let mut set = RankSet::new(n);
            for _ in 0..=rng.next_u64() % n as u64 {
                set.insert(pick(rng));
            }
            Dests::Set(Arc::new(set))
        }
        _ => {
            let mut list = Vec::new();
            for _ in 0..=rng.next_u64() % n as u64 {
                let r = pick(rng);
                if !list.contains(&r) {
                    list.push(r);
                }
            }
            list.into()
        }
    }
}

/// Each reader's buffered messages as a FIFO of its own: what a
/// [`Backlog`] must hand back.
struct Mailboxes {
    busy: Vec<bool>,
    queues: Vec<VecDeque<u64>>,
}

impl Mailboxes {
    fn new(n: usize) -> Self {
        Mailboxes {
            busy: vec![false; n],
            queues: vec![VecDeque::new(); n],
        }
    }

    /// `msg` reaches `r`: buffered if `r` is busy; returns whether it was.
    fn deliver(&mut self, r: ActorId, msg: u64) -> bool {
        let busy = self.busy[r.index()];
        if busy {
            self.queues[r.index()].push_back(msg);
        }
        busy
    }
}

/// Random operations on a [`Backlog`] and on per-reader FIFO queues side by
/// side: fan-outs (some delivered in two parts, as when a stop cuts one
/// short and a later step resumes it), single deliveries, busy flags
/// switched, and one-at-a-time or full drains. Every read must match the
/// reference, and once every reader has drained, nothing may be left.
fn backlog_matches_fifo_mailboxes(seed: u64, n: usize, steps: usize) -> Result<(), TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    let mut backlog = Backlog::<u64>::new(n);
    let mut model = Mailboxes::new(n);
    for msg in 0..steps as u64 {
        let r = ActorId((rng.next_u64() % n as u64) as usize);
        match rng.next_u64() % 8 {
            0 => {
                // A reader turns busy, or idle once it has read everything.
                let busy = !model.busy[r.index()];
                if busy || model.queues[r.index()].is_empty() {
                    model.busy[r.index()] = busy;
                    backlog.set_busy(r, busy);
                }
            }
            1 | 2 => {
                let dests = random_dests(&mut rng, n);
                let order: Vec<ActorId> = dests.iter().collect();
                // Cut after `cut` receivers, or not at all.
                let cut = (rng.next_u64() % (order.len() as u64 + 1)) as usize;
                for part in [&order[..cut], &order[cut..]] {
                    for &q in part {
                        let buffered = backlog.offer(q).is_some();
                        prop_assert_eq!(buffered, model.deliver(q, msg));
                    }
                    let part = if cut == 0 || cut == order.len() {
                        dests.clone()
                    } else {
                        Dests::List(part.into())
                    };
                    backlog.close_fanout(|| (msg, part));
                    if cut == 0 || cut == order.len() {
                        break;
                    }
                }
            }
            3 => {
                let buffered = backlog.offer_single(r, || msg).is_some();
                prop_assert_eq!(buffered, model.deliver(r, msg));
            }
            4..=6 => {
                prop_assert_eq!(backlog.pop(r), model.queues[r.index()].pop_front());
            }
            _ => {
                while let Some(m) = backlog.pop(r) {
                    prop_assert_eq!(Some(m), model.queues[r.index()].pop_front());
                }
                prop_assert!(model.queues[r.index()].is_empty());
            }
        }
        prop_assert_eq!(backlog.unread(r), model.queues[r.index()].len());
    }
    for (q, queue) in model.queues.iter_mut().enumerate() {
        while let Some(m) = backlog.pop(ActorId(q)) {
            prop_assert_eq!(Some(m), queue.pop_front());
        }
        prop_assert!(queue.is_empty(), "reader {} lost messages", q);
    }
    prop_assert!(backlog.is_empty(), "{} entries left", backlog.len());
    Ok(())
}

/// A world of readers that are busy between a `Start` and a `Finish` event
/// of their own. A message reaching an idle reader is read at once (and
/// the `stop_at`-th such read requests a stop); a busy reader keeps it
/// until `Finish`, which reads everything it kept. With `backlog`, fan-outs
/// go through a [`Backlog`] in one `handle_fanout` loop; without, each
/// destination through `handle` and a FIFO queue per reader.
struct Readers {
    backlog: Option<Backlog<u64>>,
    model: Mailboxes,
    stop_at: Option<u64>,
    read_at_once: u64,
    /// Per reader, the messages read, in order.
    log: Vec<Vec<u64>>,
}

#[derive(Clone, Copy, Debug)]
enum ReaderEv {
    Msg(u64),
    Start,
    Finish,
}

impl Readers {
    fn new(n: usize, backlog: bool, stop_at: Option<u64>) -> Self {
        Readers {
            backlog: backlog.then(|| Backlog::new(n)),
            model: Mailboxes::new(n),
            stop_at,
            read_at_once: 0,
            log: vec![Vec::new(); n],
        }
    }

    fn read_now(&mut self, r: ActorId, msg: u64, sched: &mut Scheduler<'_, ReaderEv>) {
        self.log[r.index()].push(msg);
        self.read_at_once += 1;
        if self.stop_at == Some(self.read_at_once) {
            sched.request_stop();
        }
    }

    /// Read everything `r` kept, in order.
    fn drain(&mut self, r: ActorId) {
        let log = &mut self.log[r.index()];
        match self.backlog.as_mut() {
            Some(b) => log.extend(std::iter::from_fn(|| b.pop(r))),
            None => log.extend(self.model.queues[r.index()].drain(..)),
        }
    }

    fn set_busy(&mut self, r: ActorId, busy: bool) {
        match self.backlog.as_mut() {
            Some(b) => b.set_busy(r, busy),
            None => self.model.busy[r.index()] = busy,
        }
    }
}

impl World for Readers {
    type Event = ReaderEv;

    fn handle(&mut self, _: SimTime, r: ActorId, ev: ReaderEv, s: &mut Scheduler<'_, ReaderEv>) {
        match ev {
            ReaderEv::Msg(msg) => {
                let buffered = match self.backlog.as_mut() {
                    Some(b) => b.offer_single(r, || msg).is_some(),
                    None => self.model.deliver(r, msg),
                };
                if !buffered {
                    self.read_now(r, msg, s);
                }
            }
            ReaderEv::Start => self.set_busy(r, true),
            ReaderEv::Finish => {
                self.drain(r);
                self.set_busy(r, false);
            }
        }
    }

    fn handle_fanout(
        &mut self,
        now: SimTime,
        recipients: &mut Recipients<'_>,
        ev: &ReaderEv,
        s: &mut Scheduler<'_, ReaderEv>,
    ) {
        let (ReaderEv::Msg(msg), true) = (*ev, self.backlog.is_some()) else {
            for r in recipients {
                self.handle(now, r, *ev, s);
            }
            return;
        };
        let start = recipients.taken();
        for r in recipients.by_ref() {
            if self.backlog.as_mut().unwrap().offer(r).is_none() {
                self.read_now(r, msg, s);
            }
        }
        let backlog = self.backlog.as_mut().unwrap();
        backlog.close_fanout(|| (msg, recipients.yielded_since(start)));
    }
}

/// Run a [`Readers`] world over random traffic, resuming after every
/// requested stop; then every reader reads what it still keeps.
fn run_readers(
    seed: u64,
    n: usize,
    backlog: bool,
    config: SimConfig,
    stop_at: Option<u64>,
) -> Readers {
    let mut rng = SplitMix64::new(seed);
    let mut sim = Simulator::new(config);
    for msg in 0..40 {
        let at = SimTime(rng.next_u64() % 50);
        let dests = random_dests(&mut rng, n);
        sim.schedule_fanout_at(at, dests, ReaderEv::Msg(msg));
    }
    for r in 0..n {
        let start = rng.next_u64() % 40;
        sim.schedule_at(SimTime(start), ActorId(r), ReaderEv::Start);
        sim.schedule_at(
            SimTime(start + rng.next_u64() % 20),
            ActorId(r),
            ReaderEv::Finish,
        );
    }
    let mut world = Readers::new(n, backlog, stop_at);
    while sim.run(&mut world) == StopReason::Requested {}
    for r in 0..n {
        world.drain(ActorId(r));
    }
    world
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

    /// Interleaved pushes and pops against a model that sorts by
    /// `(time, push index)`: few distinct instants, so buckets fill, drain
    /// and come back, and pushes at the instant just popped, as a world
    /// scheduling "now" does. `len`, `peek_time` and `is_empty` agree with
    /// the model after every step.
    #[test]
    fn event_queue_matches_a_stable_model_under_interleaving(
        ops in prop::collection::vec((0u8..4, 0u64..4), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let mut pushed = 0;
        let mut last_popped = SimTime(0);
        for (op, t) in ops {
            match op {
                0 => {
                    let expected = model
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &key)| key)
                        .map(|(i, _)| i)
                        .map(|i| model.remove(i));
                    let popped = q.pop();
                    prop_assert_eq!(popped, expected);
                    if let Some((time, _)) = popped {
                        last_popped = time;
                    }
                }
                op => {
                    let time = if op == 1 { last_popped } else { SimTime(10 * t) };
                    q.push(time, pushed);
                    model.push((time, pushed));
                    pushed += 1;
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.peek_time(), model.iter().map(|&(time, _)| time).min());
        }
        let mut rest = Vec::new();
        while let Some(popped) = q.pop() {
            rest.push(popped);
        }
        model.sort();
        prop_assert_eq!(rest, model);
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

    /// Welford's running mean and max agree with a naive two-pass computation.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
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
        let expanded = run_cascade(Mode::Expanded, seed, &initial, config, stop_at);
        let fanned = run_cascade(Mode::Fanout, seed, &initial, config, stop_at);
        prop_assert_eq!(fanned, expanded);
    }

    /// A world whose `handle_fanout` treats the destinations in one loop
    /// delivers exactly what the provided one-`handle`-per-destination
    /// method does: the same `(time, actor, event)` log and the same
    /// `processed()` count at every stop. A stop requested part-way through
    /// a fan-out leaves the rest for the resumed run, which delivers it
    /// before anything else; `max_events` reached part-way ends the run with
    /// a prefix of the unlimited run's log.
    #[test]
    fn batched_fanout_handler_matches_the_provided_one(
        seed in any::<u64>(),
        initial in prop::collection::vec((0u64..30, any::<u64>()), 1..8),
        max_events in prop::option::of(1u64..120),
        stop_at in prop::option::of(1u64..120),
    ) {
        let config = SimConfig {
            max_events: max_events.unwrap_or(u64::MAX),
            ..SimConfig::default()
        };
        let provided = run_cascade(Mode::Fanout, seed, &initial, config, stop_at);
        let batched = run_cascade(Mode::Batched, seed, &initial, config, stop_at);
        prop_assert_eq!(&batched, &provided);
        let unlimited = run_cascade(Mode::Batched, seed, &initial, SimConfig::default(), stop_at);
        let (log, stops) = &batched;
        prop_assert!(unlimited.0.starts_with(log));
        let last = stops.last().expect("every run stops");
        prop_assert_eq!(last.2, log.len() as u64, "one processed step per delivery");
        if max_events.is_none() {
            prop_assert_eq!(log, &unlimited.0);
        }
    }

    /// A shared backlog reads back, to each reader, exactly what a FIFO
    /// mailbox of its own would: over small clusters and over sets of
    /// ranks that span two 64-bit words.
    #[test]
    fn backlog_reads_like_per_reader_fifo_mailboxes(
        seed in any::<u64>(),
        small in 1usize..8,
        steps in 1usize..300,
    ) {
        backlog_matches_fifo_mailboxes(seed, small, steps)?;
        backlog_matches_fifo_mailboxes(seed, 70, steps)?;
    }

    /// A world that buffers fan-outs in a backlog reads what the
    /// per-destination world reads, reader by reader, when requested stops
    /// cut fan-outs short and later steps resume them, or the event limit
    /// cuts one for good: each remaining receiver gets its copy once, and a
    /// receiver served before the cut does not read it again.
    #[test]
    fn backlog_fanouts_cut_short_and_resumed_read_like_mailboxes(
        seed in any::<u64>(),
        n in 1usize..8,
        max_events in prop::option::of(1u64..200),
        stop_at in prop::option::of(1u64..60),
    ) {
        let config = SimConfig {
            max_events: max_events.unwrap_or(u64::MAX),
            ..SimConfig::default()
        };
        let reference = run_readers(seed, n, false, config, stop_at);
        let batched = run_readers(seed, n, true, config, stop_at);
        prop_assert_eq!(&batched.log, &reference.log);
        let backlog = batched.backlog.as_ref().unwrap();
        prop_assert!(backlog.is_empty(), "{} entries left", backlog.len());
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

/// A world that logs deliveries and requests a stop at chosen deliveries.
struct StopLog {
    stops: Vec<u64>,
    log: Vec<(u64, usize, u8)>,
}

impl World for StopLog {
    type Event = u8;

    fn handle(&mut self, now: SimTime, a: ActorId, ev: u8, s: &mut Scheduler<'_, u8>) {
        self.log.push((now.as_nanos(), a.index(), ev));
        if self.stops.contains(&(self.log.len() as u64)) {
            s.request_stop();
        }
    }
}

#[test]
fn stop_and_event_limit_part_way_leave_the_rest_of_a_fanout_pending() {
    let dests: Vec<ActorId> = [4, 0, 3, 1].map(ActorId).to_vec();
    // A stop on the second destination: the resumed run delivers the other
    // two before the later entry.
    let mut sim = Simulator::new(SimConfig::default());
    sim.schedule_fanout_at(SimTime(5), dests.clone().into(), 1);
    sim.schedule_at(SimTime(5), ActorId(2), 2);
    let mut w = StopLog {
        stops: vec![2],
        log: vec![],
    };
    assert_eq!(sim.run(&mut w), StopReason::Requested);
    assert_eq!(sim.processed(), 2);
    assert_eq!(sim.run(&mut w), StopReason::Drained);
    let order: Vec<(usize, u8)> = w.log.iter().map(|&(_, a, ev)| (a, ev)).collect();
    assert_eq!(order, vec![(4, 1), (0, 1), (3, 1), (1, 1), (2, 2)]);
    assert_eq!(sim.processed(), 5);
    // The event limit part-way: every later step reports it and delivers
    // nothing more.
    let mut sim = Simulator::new(SimConfig {
        max_events: 3,
        ..SimConfig::default()
    });
    sim.schedule_fanout_at(SimTime(5), dests.into(), 1);
    let mut w = StopLog {
        stops: vec![],
        log: vec![],
    };
    assert_eq!(sim.run(&mut w), StopReason::EventLimit);
    assert_eq!(sim.step(&mut w), Err(StopReason::EventLimit));
    assert_eq!(w.log.len(), 3);
    assert_eq!(sim.processed(), 3);
}
