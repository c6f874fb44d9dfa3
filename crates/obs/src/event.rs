//! The typed protocol-event taxonomy.
//!
//! Events carry no timestamp or emitter: mechanisms are pure state machines
//! that do not know the clock, so the embedding stamps `(time, actor)` when
//! it forwards staged events to a [`crate::Recorder`], yielding
//! [`EventRecord`]s.
//!
//! A run can record millions of events, so each is kept small: message and
//! task kinds are one-byte enums ([`MsgKind`], [`TaskKind`]) rather than
//! strings, and ranks, node ids and byte counts are `u32`. A
//! [`ProtocolEvent`] is 16 bytes, and an [`EventRecord`] packs its stamp
//! and event into 24 (snapshot request ids narrowed to `u32` as well). The
//! narrowing to `u32` is checked ([`rank`], [`narrow`]): a value that does
//! not fit panics instead of being recorded wrong.

use loadex_sim::{ActorId, SimTime};
use serde::{
    ser::{write_f64, write_u64},
    Serialize,
};
use std::fmt::Debug;

/// `p`'s rank as events store it.
///
/// # Panics
/// If the rank does not fit in a `u32`.
#[inline]
pub fn rank(p: ActorId) -> u32 {
    narrow(p.index())
}

/// A node id, count or byte size as events store it.
///
/// # Panics
/// If `x` does not fit in a `u32`.
#[inline]
pub fn narrow<T: TryInto<u32> + Copy + Debug>(x: T) -> u32 {
    x.try_into()
        .unwrap_or_else(|_| panic!("{x:?} does not fit in an event's u32 field"))
}

/// The kind of a state message, as [`ProtocolEvent::StateSend`] and
/// [`ProtocolEvent::StateRecv`] record it (one per `StateMsg` variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Naive mechanism: absolute load.
    Update,
    /// Increments mechanism: accumulated load delta.
    UpdateDelta,
    /// Increments mechanism: reservation broadcast after a decision.
    MasterToAll,
    /// §2.3: the sender takes no further decision.
    NoMoreMaster,
    /// Snapshot request.
    StartSnp,
    /// Snapshot answer.
    Snp,
    /// Snapshot finished.
    EndSnp,
    /// Snapshot: a master's share for one selected slave.
    MasterToSlave,
    /// Gossip digest.
    Gossip,
}

impl MsgKind {
    /// Stable snake_case name (the exports' `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            MsgKind::Update => "update",
            MsgKind::UpdateDelta => "update_delta",
            MsgKind::MasterToAll => "master_to_all",
            MsgKind::NoMoreMaster => "no_more_master",
            MsgKind::StartSnp => "start_snp",
            MsgKind::Snp => "snp",
            MsgKind::EndSnp => "end_snp",
            MsgKind::MasterToSlave => "master_to_slave",
            MsgKind::Gossip => "gossip",
        }
    }
}

/// The kind of a solver task, as [`ProtocolEvent::TaskStart`] records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// A collapsed leaf subtree.
    Subtree,
    /// A sequential Type 1 front.
    Type1,
    /// The pivot-block part of a Type 2 front (master side).
    Type2Master,
    /// A row block of a Type 2 front (slave side).
    Type2Slave,
    /// A Type 2 front factored whole by its master (no slaves).
    Type2Whole,
    /// A share of the Type 3 root.
    RootPart,
}

impl TaskKind {
    /// Stable snake_case name (the exports' `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Subtree => "subtree",
            TaskKind::Type1 => "type1",
            TaskKind::Type2Master => "type2_master",
            TaskKind::Type2Slave => "type2_slave",
            TaskKind::Type2Whole => "type2_whole",
            TaskKind::RootPart => "root_part",
        }
    }
}

/// One protocol-level occurrence, as emitted at the instrumentation sites.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolEvent {
    /// A state message was handed to the transport. `to` is `None` for a
    /// broadcast staged as a single logical send.
    StateSend {
        /// Destination rank (`None` = all others).
        to: Option<u32>,
        /// Message kind (`StateMsg::kind`).
        kind: MsgKind,
        /// Modeled wire size.
        bytes: u32,
    },
    /// A state message was consumed by a mechanism.
    StateRecv {
        /// Originating rank.
        from: u32,
        /// Message kind (`StateMsg::kind`).
        kind: MsgKind,
        /// Modeled wire size.
        bytes: u32,
    },
    /// The emitter initiated (or re-initiated) snapshot `req` (§3).
    SnapshotStart {
        /// Request identifier.
        req: u64,
    },
    /// The emitter finalized its snapshot `req` (decision taken, `end_snp`
    /// broadcast).
    SnapshotEnd {
        /// Request identifier.
        req: u64,
    },
    /// The emitter won the leader election among concurrent initiators.
    ElectionWon {
        /// The emitter's request identifier.
        req: u64,
    },
    /// The emitter lost the election to `winner` and must wait.
    ElectionLost {
        /// The emitter's request identifier.
        req: u64,
        /// The preferred rival initiator's rank.
        winner: u32,
    },
    /// The emitter withheld its `snp` answer to a non-leader initiator
    /// (the sequentialisation device of §3).
    DelayedAnswer {
        /// The rank of the initiator whose answer is being delayed.
        to: u32,
        /// That initiator's request identifier.
        req: u64,
    },
    /// A dynamic scheduling decision was opened for tree node `node`.
    DecisionOpen {
        /// Assembly-tree node id.
        node: u32,
    },
    /// The decision for `node` completed, selecting `slaves` slaves.
    DecisionComplete {
        /// Assembly-tree node id.
        node: u32,
        /// Number of slaves selected.
        slaves: u32,
    },
    /// The emitter became blocked (waiting on the exchange protocol).
    Blocked,
    /// The emitter resumed from a blocked state.
    Resumed,
    /// A solver task started executing.
    TaskStart {
        /// Assembly-tree node id.
        node: u32,
        /// Task kind.
        kind: TaskKind,
    },
    /// A solver task finished.
    TaskEnd {
        /// Assembly-tree node id.
        node: u32,
    },
    /// Active memory grew by `entries` real entries.
    MemAlloc {
        /// Size of the allocation, in factor entries.
        entries: f64,
    },
    /// Active memory shrank by `entries` real entries.
    MemFree {
        /// Size of the release, in factor entries.
        entries: f64,
    },
}

impl ProtocolEvent {
    /// A [`ProtocolEvent::StateSend`] of `bytes` bytes to `to` (`None` = all
    /// others), with each field narrowed to its stored width.
    pub fn state_send(to: Option<ActorId>, kind: MsgKind, bytes: u64) -> Self {
        ProtocolEvent::StateSend {
            to: to.map(rank),
            kind,
            bytes: narrow(bytes),
        }
    }

    /// A [`ProtocolEvent::StateRecv`] of `bytes` bytes from `from`, with each
    /// field narrowed to its stored width.
    pub fn state_recv(from: ActorId, kind: MsgKind, bytes: u64) -> Self {
        ProtocolEvent::StateRecv {
            from: rank(from),
            kind,
            bytes: narrow(bytes),
        }
    }

    /// Stable snake_case name of the event variant: the Chrome trace event
    /// name, and the JSONL `ev` field (which the JSONL encoder writes as a
    /// literal; its tests check the two agree).
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolEvent::StateSend { .. } => "state_send",
            ProtocolEvent::StateRecv { .. } => "state_recv",
            ProtocolEvent::SnapshotStart { .. } => "snapshot_start",
            ProtocolEvent::SnapshotEnd { .. } => "snapshot_end",
            ProtocolEvent::ElectionWon { .. } => "election_won",
            ProtocolEvent::ElectionLost { .. } => "election_lost",
            ProtocolEvent::DelayedAnswer { .. } => "delayed_answer",
            ProtocolEvent::DecisionOpen { .. } => "decision_open",
            ProtocolEvent::DecisionComplete { .. } => "decision_complete",
            ProtocolEvent::Blocked => "blocked",
            ProtocolEvent::Resumed => "resumed",
            ProtocolEvent::TaskStart { .. } => "task_start",
            ProtocolEvent::TaskEnd { .. } => "task_end",
            ProtocolEvent::MemAlloc { .. } => "mem_alloc",
            ProtocolEvent::MemFree { .. } => "mem_free",
        }
    }
}

/// The [`ProtocolEvent`] variant a record holds, with its message or task
/// kind; a broadcast [`ProtocolEvent::StateSend`] (`to: None`) has a tag of
/// its own. Two bytes.
#[derive(Clone, Copy)]
enum Tag {
    StateSendTo(MsgKind),
    StateSendAll(MsgKind),
    StateRecv(MsgKind),
    SnapshotStart,
    SnapshotEnd,
    ElectionWon,
    ElectionLost,
    DelayedAnswer,
    DecisionOpen,
    DecisionComplete,
    Blocked,
    Resumed,
    TaskStart(TaskKind),
    TaskEnd,
    MemAlloc,
    MemFree,
}

/// A [`ProtocolEvent`] stamped with simulation time and emitting process.
///
/// The recorder holds one record per event of a run, so a record is packed
/// into 24 bytes and decoded when read ([`EventRecord::event`]): the rank
/// as a `u32`, the variant and its message or task kind in two bytes, and
/// the payload in two 32-bit words (`to`/`from` and `bytes`; `node` and
/// `slaves`; `req` and `winner` or `to`; the two halves of `entries`'
/// bits). Snapshot request ids are narrowed to `u32` like the other fields.
#[derive(Clone, Copy)]
pub struct EventRecord {
    time: SimTime,
    actor: u32,
    tag: Tag,
    a: u32,
    b: u32,
}

impl EventRecord {
    /// `event`, stamped with `time` and `actor`.
    ///
    /// # Panics
    /// If `actor`'s rank or a snapshot request id does not fit in a `u32`
    /// ([`narrow`]).
    pub fn new(time: SimTime, actor: ActorId, event: ProtocolEvent) -> Self {
        let (tag, a, b) = match event {
            ProtocolEvent::StateSend { to, kind, bytes } => match to {
                Some(to) => (Tag::StateSendTo(kind), to, bytes),
                None => (Tag::StateSendAll(kind), 0, bytes),
            },
            ProtocolEvent::StateRecv { from, kind, bytes } => (Tag::StateRecv(kind), from, bytes),
            ProtocolEvent::SnapshotStart { req } => (Tag::SnapshotStart, narrow(req), 0),
            ProtocolEvent::SnapshotEnd { req } => (Tag::SnapshotEnd, narrow(req), 0),
            ProtocolEvent::ElectionWon { req } => (Tag::ElectionWon, narrow(req), 0),
            ProtocolEvent::ElectionLost { req, winner } => (Tag::ElectionLost, narrow(req), winner),
            ProtocolEvent::DelayedAnswer { to, req } => (Tag::DelayedAnswer, to, narrow(req)),
            ProtocolEvent::DecisionOpen { node } => (Tag::DecisionOpen, node, 0),
            ProtocolEvent::DecisionComplete { node, slaves } => {
                (Tag::DecisionComplete, node, slaves)
            }
            ProtocolEvent::Blocked => (Tag::Blocked, 0, 0),
            ProtocolEvent::Resumed => (Tag::Resumed, 0, 0),
            ProtocolEvent::TaskStart { node, kind } => (Tag::TaskStart(kind), node, 0),
            ProtocolEvent::TaskEnd { node } => (Tag::TaskEnd, node, 0),
            ProtocolEvent::MemAlloc { entries } => {
                let (lo, hi) = split_bits(entries);
                (Tag::MemAlloc, lo, hi)
            }
            ProtocolEvent::MemFree { entries } => {
                let (lo, hi) = split_bits(entries);
                (Tag::MemFree, lo, hi)
            }
        };
        EventRecord {
            time,
            actor: rank(actor),
            tag,
            a,
            b,
        }
    }

    /// When the event happened.
    #[inline]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The process it happened on.
    #[inline]
    pub fn actor(&self) -> ActorId {
        ActorId(self.actor as usize)
    }

    /// What happened.
    #[inline]
    pub fn event(&self) -> ProtocolEvent {
        let (a, b) = (self.a, self.b);
        match self.tag {
            Tag::StateSendTo(kind) => ProtocolEvent::StateSend {
                to: Some(a),
                kind,
                bytes: b,
            },
            Tag::StateSendAll(kind) => ProtocolEvent::StateSend {
                to: None,
                kind,
                bytes: b,
            },
            Tag::StateRecv(kind) => ProtocolEvent::StateRecv {
                from: a,
                kind,
                bytes: b,
            },
            Tag::SnapshotStart => ProtocolEvent::SnapshotStart { req: a.into() },
            Tag::SnapshotEnd => ProtocolEvent::SnapshotEnd { req: a.into() },
            Tag::ElectionWon => ProtocolEvent::ElectionWon { req: a.into() },
            Tag::ElectionLost => ProtocolEvent::ElectionLost {
                req: a.into(),
                winner: b,
            },
            Tag::DelayedAnswer => ProtocolEvent::DelayedAnswer {
                to: a,
                req: b.into(),
            },
            Tag::DecisionOpen => ProtocolEvent::DecisionOpen { node: a },
            Tag::DecisionComplete => ProtocolEvent::DecisionComplete { node: a, slaves: b },
            Tag::Blocked => ProtocolEvent::Blocked,
            Tag::Resumed => ProtocolEvent::Resumed,
            Tag::TaskStart(kind) => ProtocolEvent::TaskStart { node: a, kind },
            Tag::TaskEnd => ProtocolEvent::TaskEnd { node: a },
            Tag::MemAlloc => ProtocolEvent::MemAlloc {
                entries: join_bits(a, b),
            },
            Tag::MemFree => ProtocolEvent::MemFree {
                entries: join_bits(a, b),
            },
        }
    }
}

/// `x`'s bits as (low, high) words.
fn split_bits(x: f64) -> (u32, u32) {
    let bits = x.to_bits();
    (bits as u32, (bits >> 32) as u32)
}

/// The `f64` whose bits [`split_bits`] returned as `(lo, hi)`.
fn join_bits(lo: u32, hi: u32) -> f64 {
    f64::from_bits(u64::from(hi) << 32 | u64::from(lo))
}

/// Over the decoded `(time, actor, event)`.
impl PartialEq for EventRecord {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.actor, self.event()) == (other.time, other.actor, other.event())
    }
}

/// Shows the decoded `(time, actor, event)`.
impl Debug for EventRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRecord")
            .field("time", &self.time)
            .field("actor", &self.actor())
            .field("event", &self.event())
            .finish()
    }
}

/// The JSONL encoding: `{"t":..,"p":..,"ev":"..",...payload}`.
///
/// A run exports millions of records, so each is written directly: one
/// match on the variant, pre-joined key fragments, and integers through
/// [`write_u64`]. `tests::encoder_matches_field_by_field_reference` pins it
/// to a field-by-field rendering of the same record.
impl Serialize for EventRecord {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"t\":");
        write_u64(out, self.time.as_nanos());
        out.push_str(",\"p\":");
        write_u64(out, self.actor.into());
        match self.event() {
            ProtocolEvent::StateSend { to, kind, bytes } => {
                out.push_str(",\"ev\":\"state_send\",\"to\":");
                match to {
                    Some(to) => write_u64(out, to.into()),
                    None => out.push_str("null"),
                }
                out.push_str(",\"kind\":\"");
                out.push_str(kind.name());
                out.push_str("\",\"bytes\":");
                write_u64(out, bytes.into());
            }
            ProtocolEvent::StateRecv { from, kind, bytes } => {
                out.push_str(",\"ev\":\"state_recv\",\"from\":");
                write_u64(out, from.into());
                out.push_str(",\"kind\":\"");
                out.push_str(kind.name());
                out.push_str("\",\"bytes\":");
                write_u64(out, bytes.into());
            }
            ProtocolEvent::SnapshotStart { req } => {
                out.push_str(",\"ev\":\"snapshot_start\",\"req\":");
                write_u64(out, req);
            }
            ProtocolEvent::SnapshotEnd { req } => {
                out.push_str(",\"ev\":\"snapshot_end\",\"req\":");
                write_u64(out, req);
            }
            ProtocolEvent::ElectionWon { req } => {
                out.push_str(",\"ev\":\"election_won\",\"req\":");
                write_u64(out, req);
            }
            ProtocolEvent::ElectionLost { req, winner } => {
                out.push_str(",\"ev\":\"election_lost\",\"req\":");
                write_u64(out, req);
                out.push_str(",\"winner\":");
                write_u64(out, winner.into());
            }
            ProtocolEvent::DelayedAnswer { to, req } => {
                out.push_str(",\"ev\":\"delayed_answer\",\"to\":");
                write_u64(out, to.into());
                out.push_str(",\"req\":");
                write_u64(out, req);
            }
            ProtocolEvent::DecisionOpen { node } => {
                out.push_str(",\"ev\":\"decision_open\",\"node\":");
                write_u64(out, node.into());
            }
            ProtocolEvent::DecisionComplete { node, slaves } => {
                out.push_str(",\"ev\":\"decision_complete\",\"node\":");
                write_u64(out, node.into());
                out.push_str(",\"slaves\":");
                write_u64(out, slaves.into());
            }
            ProtocolEvent::Blocked => out.push_str(",\"ev\":\"blocked\""),
            ProtocolEvent::Resumed => out.push_str(",\"ev\":\"resumed\""),
            ProtocolEvent::TaskStart { node, kind } => {
                out.push_str(",\"ev\":\"task_start\",\"node\":");
                write_u64(out, node.into());
                out.push_str(",\"kind\":\"");
                out.push_str(kind.name());
                out.push('"');
            }
            ProtocolEvent::TaskEnd { node } => {
                out.push_str(",\"ev\":\"task_end\",\"node\":");
                write_u64(out, node.into());
            }
            ProtocolEvent::MemAlloc { entries } => {
                out.push_str(",\"ev\":\"mem_alloc\",\"entries\":");
                write_f64(out, entries);
            }
            ProtocolEvent::MemFree { entries } => {
                out.push_str(",\"ev\":\"mem_free\",\"entries\":");
                write_f64(out, entries);
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::ser::JsonMap;

    #[test]
    fn records_are_24_bytes() {
        // The recorder holds one record per event of a run (millions at
        // P=128): keep both sizes from growing back unnoticed.
        assert_eq!(std::mem::size_of::<ProtocolEvent>(), 16);
        assert_eq!(std::mem::size_of::<EventRecord>(), 24);
    }

    #[test]
    fn kinds_render_their_export_names() {
        let msgs = [
            (MsgKind::Update, "update"),
            (MsgKind::UpdateDelta, "update_delta"),
            (MsgKind::MasterToAll, "master_to_all"),
            (MsgKind::NoMoreMaster, "no_more_master"),
            (MsgKind::StartSnp, "start_snp"),
            (MsgKind::Snp, "snp"),
            (MsgKind::EndSnp, "end_snp"),
            (MsgKind::MasterToSlave, "master_to_slave"),
            (MsgKind::Gossip, "gossip"),
        ];
        for (kind, name) in msgs {
            let send = ProtocolEvent::state_send(Some(ActorId(2)), kind, 24);
            assert_eq!(
                encode(7, 1, send),
                format!(r#"{{"t":7,"p":1,"ev":"state_send","to":2,"kind":"{name}","bytes":24}}"#)
            );
        }
        let tasks = [
            (TaskKind::Subtree, "subtree"),
            (TaskKind::Type1, "type1"),
            (TaskKind::Type2Master, "type2_master"),
            (TaskKind::Type2Slave, "type2_slave"),
            (TaskKind::Type2Whole, "type2_whole"),
            (TaskKind::RootPart, "root_part"),
        ];
        for (kind, name) in tasks {
            let start = ProtocolEvent::TaskStart { node: 3, kind };
            assert_eq!(
                encode(7, 1, start),
                format!(r#"{{"t":7,"p":1,"ev":"task_start","node":3,"kind":"{name}"}}"#)
            );
        }
    }

    #[test]
    fn narrowing_keeps_values_that_fit() {
        assert_eq!(rank(ActorId(5)), 5);
        assert_eq!(narrow(u64::from(u32::MAX)), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn narrowing_past_u32_panics_instead_of_wrapping() {
        narrow(u64::from(u32::MAX) + 1);
    }

    /// One event of each of the 15 variants, built from the given field
    /// values.
    fn every_variant(
        small: u32,
        req: u64,
        to: Option<u32>,
        entries: f64,
        msg: MsgKind,
        task: TaskKind,
    ) -> [ProtocolEvent; 15] {
        [
            ProtocolEvent::StateSend {
                to,
                kind: msg,
                bytes: small,
            },
            ProtocolEvent::StateRecv {
                from: small,
                kind: msg,
                bytes: small,
            },
            ProtocolEvent::SnapshotStart { req },
            ProtocolEvent::SnapshotEnd { req },
            ProtocolEvent::ElectionWon { req },
            ProtocolEvent::ElectionLost { req, winner: small },
            ProtocolEvent::DelayedAnswer { to: small, req },
            ProtocolEvent::DecisionOpen { node: small },
            ProtocolEvent::DecisionComplete {
                node: small,
                slaves: small,
            },
            ProtocolEvent::Blocked,
            ProtocolEvent::Resumed,
            ProtocolEvent::TaskStart {
                node: small,
                kind: task,
            },
            ProtocolEvent::TaskEnd { node: small },
            ProtocolEvent::MemAlloc { entries },
            ProtocolEvent::MemFree { entries },
        ]
    }

    #[test]
    fn names_are_distinct() {
        let evs = every_variant(0, 1, None, 1.0, MsgKind::Update, TaskKind::Type2Master);
        let mut names: Vec<_> = evs.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), evs.len());
    }

    const MSG_KINDS: [MsgKind; 9] = [
        MsgKind::Update,
        MsgKind::UpdateDelta,
        MsgKind::MasterToAll,
        MsgKind::NoMoreMaster,
        MsgKind::StartSnp,
        MsgKind::Snp,
        MsgKind::EndSnp,
        MsgKind::MasterToSlave,
        MsgKind::Gossip,
    ];

    const TASK_KINDS: [TaskKind; 6] = [
        TaskKind::Subtree,
        TaskKind::Type1,
        TaskKind::Type2Master,
        TaskKind::Type2Slave,
        TaskKind::Type2Whole,
        TaskKind::RootPart,
    ];

    /// Whether `x` and `y` are the same variant with the same fields, an
    /// `entries` compared by its bits (so NaN payloads and -0.0 count).
    fn same_bits(x: ProtocolEvent, y: ProtocolEvent) -> bool {
        match (x, y) {
            (ProtocolEvent::MemAlloc { entries: a }, ProtocolEvent::MemAlloc { entries: b })
            | (ProtocolEvent::MemFree { entries: a }, ProtocolEvent::MemFree { entries: b }) => {
                a.to_bits() == b.to_bits()
            }
            _ => x == y,
        }
    }

    #[test]
    fn records_round_trip_every_variant_bit_for_bit() {
        let entries = [
            -0.0,
            f64::from_bits(1), // the smallest subnormal
            f64::MAX,
            f64::from_bits(0x7ff4_dead_beef_0001), // a NaN with a payload
        ];
        for (t, actor) in [(0, 0), (u64::MAX, u32::MAX as usize)] {
            for small in [0, u32::MAX] {
                for req in [0, u64::from(u32::MAX)] {
                    for to in [None, Some(0), Some(u32::MAX)] {
                        for &e in &entries {
                            for (msg, task) in
                                MSG_KINDS.into_iter().zip(TASK_KINDS.into_iter().cycle())
                            {
                                for event in every_variant(small, req, to, e, msg, task) {
                                    let rec = EventRecord::new(SimTime(t), ActorId(actor), event);
                                    assert_eq!(rec.time(), SimTime(t));
                                    assert_eq!(rec.actor(), ActorId(actor));
                                    assert!(same_bits(rec.event(), event), "{event:?} -> {rec:?}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit in an event's u32 field")]
    fn new_panics_on_a_req_past_u32() {
        EventRecord::new(
            SimTime(0),
            ActorId(0),
            ProtocolEvent::DelayedAnswer {
                to: 1,
                req: u64::from(u32::MAX) + 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "does not fit in an event's u32 field")]
    fn new_panics_on_an_actor_past_u32() {
        EventRecord::new(
            SimTime(0),
            ActorId(u32::MAX as usize + 1),
            ProtocolEvent::Blocked,
        );
    }

    /// `event` stamped `(t, actor)` and built field by field through
    /// `JsonMap`, names from [`ProtocolEvent::name`]: the reference the
    /// direct encoder must match.
    fn reference_json(t: u64, actor: usize, event: ProtocolEvent) -> String {
        let mut out = String::new();
        let mut map = JsonMap::new(&mut out);
        map.field("t", &t)
            .field("p", &(actor as u64))
            .field("ev", event.name());
        match event {
            ProtocolEvent::StateSend { to, kind, bytes } => {
                map.field("to", &to)
                    .field("kind", kind.name())
                    .field("bytes", &bytes);
            }
            ProtocolEvent::StateRecv { from, kind, bytes } => {
                map.field("from", &from)
                    .field("kind", kind.name())
                    .field("bytes", &bytes);
            }
            ProtocolEvent::SnapshotStart { req }
            | ProtocolEvent::SnapshotEnd { req }
            | ProtocolEvent::ElectionWon { req } => {
                map.field("req", &req);
            }
            ProtocolEvent::ElectionLost { req, winner } => {
                map.field("req", &req).field("winner", &winner);
            }
            ProtocolEvent::DelayedAnswer { to, req } => {
                map.field("to", &to).field("req", &req);
            }
            ProtocolEvent::DecisionOpen { node } | ProtocolEvent::TaskEnd { node } => {
                map.field("node", &node);
            }
            ProtocolEvent::DecisionComplete { node, slaves } => {
                map.field("node", &node).field("slaves", &slaves);
            }
            ProtocolEvent::Blocked | ProtocolEvent::Resumed => {}
            ProtocolEvent::TaskStart { node, kind } => {
                map.field("node", &node).field("kind", kind.name());
            }
            ProtocolEvent::MemAlloc { entries } | ProtocolEvent::MemFree { entries } => {
                map.field("entries", &entries);
            }
        }
        map.end();
        out
    }

    /// The encoding of `event` stamped `(t, actor)`, through
    /// [`EventRecord::new`].
    fn encode(t: u64, actor: usize, event: ProtocolEvent) -> String {
        EventRecord::new(SimTime(t), ActorId(actor), event).to_json()
    }

    #[test]
    fn encoder_matches_reference_at_edge_values() {
        let wide = [0, u64::from(u32::MAX), u64::MAX];
        let actors = [0, 1, u32::MAX as usize];
        let reqs = [0, 1, u64::from(u32::MAX)];
        let entries = [0.5, -0.0, 1e21, f64::NAN, f64::INFINITY];
        for (&t, &actor) in wide.iter().zip(&actors) {
            for &req in &reqs {
                for &e in &entries {
                    for to in [None, Some(0), Some(u32::MAX)] {
                        let evs =
                            every_variant(u32::MAX, req, to, e, MsgKind::Gossip, TaskKind::Type1);
                        for event in evs {
                            assert_eq!(encode(t, actor, event), reference_json(t, actor, event));
                        }
                    }
                }
            }
        }
        assert_eq!(
            encode(1, 0, ProtocolEvent::MemFree { entries: f64::NAN }),
            r#"{"t":1,"p":0,"ev":"mem_free","entries":null}"#
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encoder_matches_field_by_field_reference(
            wide_draw in (any::<u64>(), 0..64u32, any::<u32>(), 0..32u32),
            small_draw in (any::<u32>(), 0..32u32, any::<u32>()),
            to in prop::option::of(any::<u32>()),
            entries in any::<f64>(),
            kinds in (0..MSG_KINDS.len(), 0..TASK_KINDS.len()),
        ) {
            // Shifts spread the drawn integers over every digit count.
            let (t, t_shift, req, req_shift) = wide_draw;
            let (small, small_shift, actor) = small_draw;
            let (t, actor) = (t >> t_shift, actor as usize);
            let evs = every_variant(
                small >> small_shift,
                u64::from(req >> req_shift),
                to,
                entries,
                MSG_KINDS[kinds.0],
                TASK_KINDS[kinds.1],
            );
            for event in evs {
                prop_assert_eq!(encode(t, actor, event), reference_json(t, actor, event));
            }
        }
    }

    #[test]
    fn record_serializes_to_flat_json() {
        let send = ProtocolEvent::state_send(Some(ActorId(1)), MsgKind::UpdateDelta, 32);
        assert_eq!(
            encode(1500, 2, send),
            r#"{"t":1500,"p":2,"ev":"state_send","to":1,"kind":"update_delta","bytes":32}"#
        );
    }

    #[test]
    fn broadcast_send_serializes_null_dest() {
        let send = ProtocolEvent::state_send(None, MsgKind::EndSnp, 16);
        assert!(encode(0, 0, send).contains(r#""to":null"#));
    }
}
