//! State-information message types.
//!
//! All messages here travel on the dedicated priority channel (§1). The wire
//! sizes below model a compact binary encoding and drive the bandwidth term
//! of the network model; the paper notes (§4.5) that snapshot messages are
//! larger because "we can send all the metrics required … in a single
//! message" while the increment mechanism sends "a message for each
//! sufficient variation of a metric".

use crate::load::Load;
use loadex_obs::MsgKind;
use loadex_sim::ActorId;

/// Per-message framing overhead (tag + source + length), in bytes.
const HEADER: u64 = 16;

/// A state-information message.
#[derive(Clone, Debug, PartialEq)]
pub enum StateMsg {
    /// Naive mechanism (Algorithm 2): the sender's **absolute** load.
    Update {
        /// The sender's current absolute load.
        load: Load,
    },
    /// Increment mechanism (Algorithm 3): an accumulated load **delta**.
    UpdateDelta {
        /// Accumulated variation since the last broadcast.
        delta: Load,
    },
    /// Increment mechanism (Algorithm 3): a slave selection just made by the
    /// sender — the reservation broadcast.
    MasterToAll {
        /// `(slave, load assigned to that slave)` pairs.
        assignments: Vec<(ActorId, Load)>,
    },
    /// §2.3: the sender will take no further dynamic decision; stop sending
    /// it load information.
    NoMoreMaster,
    /// Snapshot (§3): the sender initiates snapshot number `req`. `partial`
    /// marks a §5-style partial snapshot whose candidate set may exclude
    /// other initiators (candidates then enforce the serialization).
    StartSnp {
        /// Request identifier.
        req: u64,
        /// Whether this is a partial (candidate-subset) snapshot.
        partial: bool,
    },
    /// Snapshot (§3): the sender's state, answering request `req`.
    Snp {
        /// The sender's current load (all metrics in one message, §4.5).
        load: Load,
        /// The request id being answered.
        req: u64,
    },
    /// Snapshot (§3): the sender's snapshot (and decision) is finished.
    EndSnp,
    /// Snapshot (Algorithm 4): sent by a master to each selected slave with
    /// its assigned share, so the slave can update its own state before any
    /// subsequent snapshot.
    MasterToSlave {
        /// The share of work/memory assigned to the receiving slave.
        delta: Load,
    },
    /// Gossip mechanism (extension): an anti-entropy digest — versioned load
    /// entries, merged at the receiver by version.
    Gossip {
        /// `(process, version, load)` triples, newest known to the sender.
        entries: Vec<(ActorId, u64, Load)>,
    },
}

impl StateMsg {
    /// Modeled wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        match self {
            StateMsg::Update { .. } => HEADER + 16,
            StateMsg::UpdateDelta { .. } => HEADER + 16,
            StateMsg::MasterToAll { assignments } => HEADER + 24 * assignments.len() as u64,
            StateMsg::NoMoreMaster => HEADER,
            StateMsg::StartSnp { .. } => HEADER + 8,
            // One message carries *all* metrics (work, memory, and room for
            // more), hence larger than an Update.
            StateMsg::Snp { .. } => HEADER + 32,
            StateMsg::EndSnp => HEADER,
            StateMsg::MasterToSlave { .. } => HEADER + 16,
            StateMsg::Gossip { entries } => HEADER + 28 * entries.len() as u64,
        }
    }

    /// The processes whose load this message informs the receiver (`me`)
    /// about, given the sender `from` — the "subjects" a view-accuracy probe
    /// should refresh when `me` consumes the message.
    ///
    /// Load-carrying messages about the sender itself (`Update`,
    /// `UpdateDelta`, `Snp`) refresh the pair `(me, from)`; a `MasterToAll`
    /// reservation refreshes `me`'s view of every assigned slave; a
    /// `MasterToSlave` share updates the receiver's **own** state (not a
    /// peer view); gossip digests refresh every entry's process. Pure
    /// control messages carry no load information.
    pub fn subjects(&self, from: ActorId, me: ActorId) -> impl Iterator<Item = ActorId> + '_ {
        type Lists<'a> = (&'a [(ActorId, Load)], &'a [(ActorId, u64, Load)]);
        let (one, (assigned, gossiped)): (Option<ActorId>, Lists<'_>) = match self {
            StateMsg::Update { .. } | StateMsg::UpdateDelta { .. } | StateMsg::Snp { .. } => {
                (Some(from), (&[], &[]))
            }
            StateMsg::MasterToAll { assignments } => (None, (assignments, &[])),
            StateMsg::Gossip { entries } => (None, (&[], entries)),
            StateMsg::MasterToSlave { .. } => (Some(me), (&[], &[])),
            StateMsg::NoMoreMaster | StateMsg::StartSnp { .. } | StateMsg::EndSnp => {
                (None, (&[], &[]))
            }
        };
        let peers = assigned
            .iter()
            .map(|a| a.0)
            .chain(gossiped.iter().map(|e| e.0));
        one.into_iter().chain(peers.filter(move |&p| p != me))
    }

    /// The message's kind, as protocol events record it (its name is
    /// [`MsgKind::name`]).
    pub fn kind(&self) -> MsgKind {
        match self {
            StateMsg::Update { .. } => MsgKind::Update,
            StateMsg::UpdateDelta { .. } => MsgKind::UpdateDelta,
            StateMsg::MasterToAll { .. } => MsgKind::MasterToAll,
            StateMsg::NoMoreMaster => MsgKind::NoMoreMaster,
            StateMsg::StartSnp { .. } => MsgKind::StartSnp,
            StateMsg::Snp { .. } => MsgKind::Snp,
            StateMsg::EndSnp => MsgKind::EndSnp,
            StateMsg::MasterToSlave { .. } => MsgKind::MasterToSlave,
            StateMsg::Gossip { .. } => MsgKind::Gossip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_answer_is_larger_than_update() {
        let snp = StateMsg::Snp {
            load: Load::ZERO,
            req: 1,
        };
        let upd = StateMsg::UpdateDelta { delta: Load::ZERO };
        assert!(snp.wire_size() > upd.wire_size());
    }

    #[test]
    fn master_to_all_scales_with_slave_count() {
        let one = StateMsg::MasterToAll {
            assignments: vec![(ActorId(1), Load::ZERO)],
        };
        let three = StateMsg::MasterToAll {
            assignments: vec![
                (ActorId(1), Load::ZERO),
                (ActorId(2), Load::ZERO),
                (ActorId(3), Load::ZERO),
            ],
        };
        assert!(three.wire_size() > one.wire_size());
    }

    #[test]
    fn subjects_name_the_processes_a_message_informs_about() {
        let from = ActorId(2);
        let me = ActorId(0);
        let subjects = |m: &StateMsg| m.subjects(from, me).collect::<Vec<_>>();
        assert_eq!(subjects(&StateMsg::Update { load: Load::ZERO }), vec![from]);
        assert_eq!(
            subjects(&StateMsg::UpdateDelta { delta: Load::ZERO }),
            vec![from]
        );
        let m2a = StateMsg::MasterToAll {
            assignments: vec![(ActorId(0), Load::ZERO), (ActorId(3), Load::ZERO)],
        };
        // The receiver's own entry is excluded.
        assert_eq!(subjects(&m2a), vec![ActorId(3)]);
        let digest = StateMsg::Gossip {
            entries: vec![(ActorId(5), 1, Load::ZERO), (ActorId(0), 2, Load::ZERO)],
        };
        assert_eq!(subjects(&digest), vec![ActorId(5)]);
        let share = StateMsg::MasterToSlave { delta: Load::ZERO };
        assert_eq!(subjects(&share), vec![me], "a share updates the receiver");
        assert!(subjects(&StateMsg::EndSnp).is_empty());
        assert!(subjects(&StateMsg::NoMoreMaster).is_empty());
    }

    #[test]
    fn kind_names_are_distinct() {
        let msgs = [
            StateMsg::Update { load: Load::ZERO },
            StateMsg::UpdateDelta { delta: Load::ZERO },
            StateMsg::MasterToAll {
                assignments: vec![],
            },
            StateMsg::NoMoreMaster,
            StateMsg::StartSnp {
                req: 0,
                partial: false,
            },
            StateMsg::Snp {
                load: Load::ZERO,
                req: 0,
            },
            StateMsg::EndSnp,
            StateMsg::MasterToSlave { delta: Load::ZERO },
            StateMsg::Gossip { entries: vec![] },
        ];
        let mut names: Vec<_> = msgs.iter().map(|m| m.kind().name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), msgs.len());
    }
}
