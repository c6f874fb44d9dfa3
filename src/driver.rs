//! A ready-made runtime for running a load-exchange mechanism over the
//! real-thread transport.
//!
//! The mechanisms in [`crate::core`] are pure state machines; embedding one
//! in a thread takes a small amount of glue (flush the outbox to the
//! endpoint, pump incoming state messages, run the decision protocol, fire
//! dissemination timers). [`Driver`] packages that glue so applications can
//! write:
//!
//! ```no_run
//! use loadex::core::{IncrementMechanism, Load, ChangeOrigin, Threshold};
//! use loadex::driver::Driver;
//! use loadex::net::ThreadNetwork;
//! use loadex::sim::ActorId;
//!
//! let mut endpoints = ThreadNetwork::new(8);
//! let ep = endpoints.remove(0);
//! let mech = IncrementMechanism::new(ep.rank(), 8, Threshold::new(1e6, 1e5));
//! let mut driver = Driver::new(mech, ep);
//!
//! driver.local_change(Load::work(3.0e6), ChangeOrigin::Local);
//! driver.pump(); // absorb whatever peers sent
//! let decision = driver
//!     .decide(std::time::Duration::from_secs(1), |view| {
//!         // pick the least loaded peer and give it work
//!         let (slave, _) = view
//!             .others()
//!             .min_by(|a, b| a.1.work.total_cmp(&b.1.work))
//!             .unwrap();
//!         vec![(slave, Load::work(1.0e6))]
//!     })
//!     .unwrap();
//! assert_eq!(decision.len(), 1);
//! ```

use crate::core::{ChangeOrigin, Dest, Gate, Load, Mechanism, Notify, OutMsg, Outbox, StateMsg};
use crate::net::{Channel, Endpoint};
use crate::sim::ActorId;
use std::time::{Duration, Instant};

/// Errors from the blocking decision protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DriverError {
    /// The snapshot did not complete within the deadline.
    DecisionTimeout,
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::DecisionTimeout => write!(f, "decision timed out"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Glue between a [`Mechanism`] and a [`Endpoint`] on real threads.
pub struct Driver<M: Mechanism> {
    mech: M,
    ep: Endpoint<StateMsg>,
    out: Outbox,
    last_timer: Instant,
}

impl<M: Mechanism> Driver<M> {
    /// Wrap a mechanism and its endpoint. Panics if their ranks differ.
    pub fn new(mech: M, ep: Endpoint<StateMsg>) -> Self {
        assert_eq!(mech.rank(), ep.rank(), "mechanism/endpoint rank mismatch");
        assert_eq!(mech.nprocs(), ep.nprocs(), "system size mismatch");
        Driver {
            mech,
            ep,
            out: Outbox::new(),
            last_timer: Instant::now(),
        }
    }

    /// The wrapped mechanism (read access).
    pub fn mech(&self) -> &M {
        &self.mech
    }

    /// This process's rank.
    pub fn rank(&self) -> ActorId {
        self.mech.rank()
    }

    /// Current view of the system.
    pub fn view(&self) -> &crate::core::LoadTable {
        self.mech.view()
    }

    fn flush(&mut self) {
        for OutMsg { dest, msg } in self.out.drain() {
            let size = msg.wire_size();
            match dest {
                Dest::One(to) => {
                    self.ep.send(to, Channel::State, size, msg);
                }
                Dest::Many(dests) => {
                    for to in dests {
                        self.ep.send(to, Channel::State, size, msg.clone());
                    }
                }
                Dest::AllOthers => {
                    self.ep.broadcast(Channel::State, size, &msg);
                }
            }
        }
    }

    /// Report a local load variation (and send whatever the mechanism
    /// decides to send).
    pub fn local_change(&mut self, delta: Load, origin: ChangeOrigin) {
        self.mech.on_local_change(delta, origin, &mut self.out);
        self.flush();
    }

    /// Announce this process will take no further decisions (§2.3).
    pub fn no_more_master(&mut self) {
        self.mech.no_more_master(&mut self.out);
        self.flush();
    }

    /// Drain all pending state messages without blocking; fires the
    /// dissemination timer if one is due. Returns the notifications raised.
    pub fn pump(&mut self) -> Vec<Notify> {
        let mut notifies = Vec::new();
        if let Some(period) = self.mech.timer_period() {
            let period = Duration::from_nanos(period.as_nanos());
            if self.last_timer.elapsed() >= period {
                self.last_timer = Instant::now();
                self.mech.on_timer(&mut self.out);
                self.flush();
            }
        }
        while let Some(env) = self.ep.try_recv_state() {
            notifies.extend(self.mech.on_state_msg(env.from, env.msg, &mut self.out));
            self.flush();
        }
        notifies
    }

    /// Pump with blocking waits until `deadline` or until a notification
    /// arrives, whichever is first.
    pub fn pump_until(&mut self, deadline: Instant) -> Vec<Notify> {
        loop {
            let mut notifies = self.pump();
            if !notifies.is_empty() || Instant::now() >= deadline {
                return notifies;
            }
            let wait =
                Duration::from_micros(200).min(deadline.saturating_duration_since(Instant::now()));
            if let Ok(env) = self.ep.recv_state_timeout(wait) {
                notifies.extend(self.mech.on_state_msg(env.from, env.msg, &mut self.out));
                self.flush();
                if !notifies.is_empty() {
                    return notifies;
                }
            }
        }
    }

    /// Run one full dynamic decision: open it (snapshot mechanisms gather a
    /// fresh view; maintained-view mechanisms answer immediately), call
    /// `select` with the view, announce the selection, and wait until the
    /// mechanism unblocks. Returns the selection.
    pub fn decide<F>(
        &mut self,
        timeout: Duration,
        select: F,
    ) -> Result<Vec<(ActorId, Load)>, DriverError>
    where
        F: FnOnce(&crate::core::LoadTable) -> Vec<(ActorId, Load)>,
    {
        let deadline = Instant::now() + timeout;
        let gate = self.mech.request_decision(&mut self.out);
        self.flush();
        if gate == Gate::Wait {
            'wait: loop {
                for n in self.pump() {
                    if n == Notify::DecisionReady {
                        break 'wait;
                    }
                }
                if Instant::now() >= deadline {
                    return Err(DriverError::DecisionTimeout);
                }
                if let Ok(env) = self.ep.recv_state_timeout(Duration::from_micros(100)) {
                    let notifies = self.mech.on_state_msg(env.from, env.msg, &mut self.out);
                    self.flush();
                    if notifies.contains(&Notify::DecisionReady) {
                        break 'wait;
                    }
                }
            }
        }
        let selection = select(self.mech.view());
        self.mech.complete_decision(&selection, &mut self.out);
        self.flush();
        // Wait out any remaining serialized snapshots.
        while self.mech.blocked() {
            if Instant::now() >= deadline {
                return Err(DriverError::DecisionTimeout);
            }
            if let Ok(env) = self.ep.recv_state_timeout(Duration::from_micros(100)) {
                self.mech.on_state_msg(env.from, env.msg, &mut self.out);
                self.flush();
            }
        }
        Ok(selection)
    }

    /// Service loop step for non-master processes: block up to `wait` for a
    /// state message and process it. Returns the notifications raised.
    pub fn serve(&mut self, wait: Duration) -> Vec<Notify> {
        let mut notifies = self.pump();
        if notifies.is_empty() {
            if let Ok(env) = self.ep.recv_state_timeout(wait) {
                notifies.extend(self.mech.on_state_msg(env.from, env.msg, &mut self.out));
                self.flush();
            }
        }
        notifies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{IncrementMechanism, SnapshotMechanism, Threshold};
    use crate::net::ThreadNetwork;
    use std::thread;

    #[test]
    fn increments_drivers_converge() {
        const N: usize = 4;
        let eps = ThreadNetwork::new::<StateMsg>(N);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                thread::spawn(move || {
                    let rank = ep.rank();
                    let mech = IncrementMechanism::new(rank, N, Threshold::ZERO);
                    let mut d = Driver::new(mech, ep);
                    d.local_change(
                        Load::work(10.0 * (rank.index() + 1) as f64),
                        ChangeOrigin::Local,
                    );
                    // Serve for a while to absorb everyone's updates.
                    let end = Instant::now() + Duration::from_millis(300);
                    while Instant::now() < end {
                        d.serve(Duration::from_millis(5));
                    }
                    (rank, d)
                })
            })
            .collect();
        let drivers: Vec<(ActorId, Driver<IncrementMechanism>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (rank, d) in &drivers {
            for q in 0..N {
                let want = 10.0 * (q + 1) as f64;
                let got = d.view().get(ActorId(q)).work;
                assert_eq!(got, want, "P{rank} view of P{q}");
            }
        }
    }

    #[test]
    fn snapshot_decision_over_driver() {
        const N: usize = 3;
        let eps = ThreadNetwork::new::<StateMsg>(N);
        let mut it = eps.into_iter();
        let master_ep = it.next().unwrap();
        let others: Vec<_> = it.collect();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let servers: Vec<_> = others
            .into_iter()
            .map(|ep| {
                let stop = std::sync::Arc::clone(&stop);
                thread::spawn(move || {
                    let rank = ep.rank();
                    let mut mech = SnapshotMechanism::new(rank, N);
                    mech.initialize(Load::work(rank.index() as f64 * 5.0));
                    let mut d = Driver::new(mech, ep);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        d.serve(Duration::from_millis(2));
                    }
                    d
                })
            })
            .collect();
        let mech = SnapshotMechanism::new(master_ep.rank(), N);
        let mut master = Driver::new(mech, master_ep);
        let sel = master
            .decide(Duration::from_secs(5), |view| {
                assert_eq!(view.get(ActorId(1)).work, 5.0);
                assert_eq!(view.get(ActorId(2)).work, 10.0);
                vec![(ActorId(2), Load::work(100.0))]
            })
            .expect("decision must complete");
        assert_eq!(sel[0].0, ActorId(2));
        // Let the slaves see master_to_slave/end_snp before stopping.
        thread::sleep(Duration::from_millis(100));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for s in servers {
            let d = s.join().unwrap();
            if d.rank() == ActorId(2) {
                assert_eq!(d.view().my_load().work, 110.0, "slave charged its share");
            }
            assert!(!d.mech().blocked());
        }
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn rank_mismatch_is_rejected() {
        let mut eps = ThreadNetwork::new::<StateMsg>(2);
        let ep1 = eps.remove(1);
        let mech = IncrementMechanism::new(ActorId(0), 2, Threshold::ZERO);
        let _ = Driver::new(mech, ep1);
    }
}
