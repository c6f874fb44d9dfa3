//! The common interface of the three exchange mechanisms.
//!
//! The paper's pseudo-code is written as blocking receive loops inside an MPI
//! process. Here each mechanism is an explicit state machine: the embedding
//! (event-driven simulator or thread runtime) feeds it *local load changes*
//! and *incoming state messages*, and asks it to open a *decision* when the
//! application reaches a dynamic scheduling point. The mechanism answers
//! through return values, [`Notify`] events and staged messages in the
//! [`Outbox`].
//!
//! Protocol expected by implementations:
//!
//! 1. The application calls [`Mechanism::request_decision`] at a slave
//!    selection point. If it returns [`Gate::Ready`], the view is usable
//!    immediately. If it returns [`Gate::Wait`], the application must stop
//!    computing and keep feeding state messages until a
//!    [`Notify::DecisionReady`] comes back.
//! 2. The application performs the slave selection using
//!    [`Mechanism::view`], then calls [`Mechanism::complete_decision`] with
//!    the chosen `(slave, assigned load)` pairs.
//! 3. While [`Mechanism::blocked`] is true the process must not compute or
//!    handle regular (non-state) messages — this is the synchronisation cost
//!    of the snapshot approach that §4.5 measures.

use crate::load::Load;
use crate::msg::StateMsg;
use crate::outbox::Outbox;
use crate::view::LoadTable;
use loadex_sim::{ActorId, SimDuration};

/// Why the local load changed. Algorithm 3 line (1): a *positive* variation
/// caused by a task for which this process is a slave must not be
/// re-broadcast (the master already announced it in `MasterToAll` /
/// `master_to_slave`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChangeOrigin {
    /// Normal local variation: work processed, a local task became ready,
    /// memory freed…
    Local,
    /// The variation comes from a task received from a master (this process
    /// is the slave for it).
    SlaveTask,
}

/// Answer to a decision request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gate {
    /// The view is ready; select slaves now.
    Ready,
    /// A snapshot is being gathered; wait for [`Notify::DecisionReady`].
    Wait,
}

/// Asynchronous notifications surfaced while processing state messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Notify {
    /// A previously requested decision may now be taken (snapshot complete).
    DecisionReady,
    /// The process entered snapshot mode for a snapshot it did not initiate:
    /// it must stop computing until [`Notify::Resumed`].
    Blocked,
    /// All snapshots finished; normal execution may resume.
    Resumed,
}

/// Message/traffic statistics kept by every mechanism.
#[derive(Clone, Debug, Default)]
pub struct MechStats {
    /// State messages handed to the transport (a broadcast to `N−1`
    /// processes counts `N−1`).
    pub msgs_sent: u64,
    /// Bytes handed to the transport.
    pub bytes_sent: u64,
    /// State messages received and processed.
    pub msgs_received: u64,
    /// Dynamic decisions completed.
    pub decisions: u64,
    /// Snapshots initiated (including re-initiations after lost elections).
    pub snapshots_started: u64,
    /// `start_snp` broadcasts that were re-issues with a fresh request id.
    pub snapshot_rebroadcasts: u64,
    /// Messages whose answer was delayed for sequentialisation.
    pub delayed_answers: u64,
}

impl MechStats {
    /// Account for `copies` copies of `msg` handed to the transport.
    pub fn count_sent(&mut self, msg: &StateMsg, copies: usize) {
        self.msgs_sent += copies as u64;
        self.bytes_sent += msg.wire_size() * copies as u64;
    }
}

/// Which mechanism a configuration selects (used by the harness).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MechKind {
    /// §2.1, Algorithm 2.
    Naive,
    /// §2.2, Algorithm 3 (+ §2.3 `NoMoreMaster`).
    Increments,
    /// §3, demand-driven distributed snapshot.
    Snapshot,
    /// Extension: time-driven absolute broadcast (heartbeat).
    Periodic,
    /// Extension: epidemic push gossip of versioned entries.
    Gossip,
}

impl MechKind {
    /// The three mechanisms of the paper, in the order it presents them.
    pub const ALL: [MechKind; 3] = [MechKind::Naive, MechKind::Increments, MechKind::Snapshot];

    /// The paper's mechanisms plus this crate's extensions.
    pub const EXTENDED: [MechKind; 5] = [
        MechKind::Naive,
        MechKind::Increments,
        MechKind::Snapshot,
        MechKind::Periodic,
        MechKind::Gossip,
    ];

    /// Human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            MechKind::Naive => "naive",
            MechKind::Increments => "increments",
            MechKind::Snapshot => "snapshot",
            MechKind::Periodic => "periodic",
            MechKind::Gossip => "gossip",
        }
    }
}

impl std::fmt::Display for MechKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The mechanism interface. See the module docs for the calling protocol.
///
/// `Send` is a supertrait: the threaded execution backend moves mechanisms
/// into worker threads and shares them (behind a mutex) with a dedicated
/// communication thread, exactly as §4.5 prescribes.
pub trait Mechanism: Send {
    /// Report a local load variation of `delta` with the given origin.
    fn on_local_change(&mut self, delta: Load, origin: ChangeOrigin, out: &mut Outbox);

    /// Process one incoming state message. Returned notifications must be
    /// acted upon by the embedding (see [`Notify`]).
    fn on_state_msg(
        &mut self,
        from: ActorId,
        msg: crate::msg::StateMsg,
        out: &mut Outbox,
    ) -> Vec<Notify>;

    /// Open a dynamic scheduling decision.
    fn request_decision(&mut self, out: &mut Outbox) -> Gate;

    /// Finish a decision with the selected `(slave, assigned load)` pairs.
    fn complete_decision(
        &mut self,
        assignments: &[(ActorId, Load)],
        out: &mut Outbox,
    ) -> Vec<Notify>;

    /// Announce that this process will never again be a master (§2.3).
    fn no_more_master(&mut self, out: &mut Outbox);

    /// Fire the mechanism's dissemination timer, if it has one (the naive
    /// mechanism's heartbeat trigger and gossip extensions). No-op for the
    /// paper's event-driven mechanisms.
    fn on_timer(&mut self, _out: &mut Outbox) {}

    /// Period at which the embedding must call [`Mechanism::on_timer`]
    /// (`None` for purely event-driven mechanisms).
    fn timer_period(&self) -> Option<SimDuration> {
        None
    }

    /// Current view of the system.
    fn view(&self) -> &LoadTable;

    /// True while the process must neither compute nor handle regular
    /// messages (snapshot in progress somewhere).
    fn blocked(&self) -> bool {
        false
    }

    /// Traffic statistics.
    fn stats(&self) -> &MechStats;
}

/// A uniformly-typed mechanism, so harness code can hold any of the three
/// without generics.
pub enum AnyMechanism {
    /// Naive mechanism (§2.1), or its periodic heartbeat extension.
    Naive(crate::naive::NaiveMechanism),
    /// Increment mechanism (§2.2–2.3).
    Increments(crate::increments::IncrementMechanism),
    /// Snapshot mechanism (§3).
    Snapshot(crate::snapshot::SnapshotMechanism),
    /// Gossip extension.
    Gossip(crate::gossip::GossipMechanism),
}

impl AnyMechanism {
    /// Which kind this is.
    pub fn kind(&self) -> MechKind {
        match self {
            AnyMechanism::Naive(m) if m.timer_period().is_some() => MechKind::Periodic,
            AnyMechanism::Naive(_) => MechKind::Naive,
            AnyMechanism::Increments(_) => MechKind::Increments,
            AnyMechanism::Snapshot(_) => MechKind::Snapshot,
            AnyMechanism::Gossip(_) => MechKind::Gossip,
        }
    }

    fn as_dyn(&self) -> &dyn Mechanism {
        match self {
            AnyMechanism::Naive(m) => m,
            AnyMechanism::Increments(m) => m,
            AnyMechanism::Snapshot(m) => m,
            AnyMechanism::Gossip(m) => m,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn Mechanism {
        match self {
            AnyMechanism::Naive(m) => m,
            AnyMechanism::Increments(m) => m,
            AnyMechanism::Snapshot(m) => m,
            AnyMechanism::Gossip(m) => m,
        }
    }
}

impl Mechanism for AnyMechanism {
    fn on_local_change(&mut self, delta: Load, origin: ChangeOrigin, out: &mut Outbox) {
        self.as_dyn_mut().on_local_change(delta, origin, out)
    }
    fn on_state_msg(
        &mut self,
        from: ActorId,
        msg: crate::msg::StateMsg,
        out: &mut Outbox,
    ) -> Vec<Notify> {
        self.as_dyn_mut().on_state_msg(from, msg, out)
    }
    fn request_decision(&mut self, out: &mut Outbox) -> Gate {
        self.as_dyn_mut().request_decision(out)
    }
    fn complete_decision(
        &mut self,
        assignments: &[(ActorId, Load)],
        out: &mut Outbox,
    ) -> Vec<Notify> {
        self.as_dyn_mut().complete_decision(assignments, out)
    }
    fn no_more_master(&mut self, out: &mut Outbox) {
        self.as_dyn_mut().no_more_master(out)
    }
    fn view(&self) -> &LoadTable {
        self.as_dyn().view()
    }
    fn blocked(&self) -> bool {
        self.as_dyn().blocked()
    }
    fn on_timer(&mut self, out: &mut Outbox) {
        self.as_dyn_mut().on_timer(out)
    }
    fn timer_period(&self) -> Option<SimDuration> {
        self.as_dyn().timer_period()
    }
    fn stats(&self) -> &MechStats {
        self.as_dyn().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_mechanism_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AnyMechanism>();
    }

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(MechKind::Naive.name(), "naive");
        assert_eq!(MechKind::Increments.name(), "increments");
        assert_eq!(MechKind::Snapshot.name(), "snapshot");
        assert_eq!(MechKind::ALL.len(), 3);
        assert_eq!(MechKind::EXTENDED.len(), 5);
    }
}
