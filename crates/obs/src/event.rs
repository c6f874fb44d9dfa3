//! The typed protocol-event taxonomy.
//!
//! Events carry no timestamp or emitter: mechanisms are pure state machines
//! that do not know the clock, so the embedding stamps `(time, actor)` when
//! it forwards staged events to a [`crate::Recorder`], yielding
//! [`EventRecord`]s.
//!
//! A run can record millions of events, so each is kept small: message and
//! task kinds are one-byte enums ([`MsgKind`], [`TaskKind`]) rather than
//! strings, ranks, node ids, byte counts and snapshot request ids are `u32`,
//! and memory amounts are [`Entries`]. A [`ProtocolEvent`] is 12 bytes with
//! a 4-byte alignment, so an [`EventRecord`] (time, rank and event) is 24.
//! The narrowing to `u32` is checked ([`rank`], [`narrow`]): a value that
//! does not fit panics instead of being recorded wrong.

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
    x.try_into().unwrap_or_else(|_| too_wide(x))
}

/// The panic of [`narrow`], out of line: emit sites sit in hot handlers.
#[cold]
#[inline(never)]
fn too_wide(x: impl Debug) -> ! {
    panic!("{x:?} does not fit in an event's u32 field")
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

/// An amount of factor entries, as [`ProtocolEvent::MemAlloc`] and
/// [`ProtocolEvent::MemFree`] record it: the bits of an `f64`, held as two
/// `u32` halves so that events keep a 4-byte alignment. The value is exact,
/// and two amounts are equal when their bits are.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Entries([u32; 2]);

impl Entries {
    /// The amount.
    #[inline]
    pub fn get(self) -> f64 {
        let [lo, hi] = self.0;
        f64::from_bits(u64::from(hi) << 32 | u64::from(lo))
    }
}

impl From<f64> for Entries {
    #[inline]
    fn from(x: f64) -> Self {
        let bits = x.to_bits();
        Entries([bits as u32, (bits >> 32) as u32])
    }
}

/// Shows the `f64`.
impl Debug for Entries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// One protocol-level occurrence, as emitted at the instrumentation sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A state message to one peer was handed to the transport.
    StateSend {
        /// Destination rank.
        to: u32,
        /// Message kind (`StateMsg::kind`).
        kind: MsgKind,
        /// Modeled wire size.
        bytes: u32,
    },
    /// A state message to all other processes was handed to the transport,
    /// staged as a single logical send.
    StateBroadcast {
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
        req: u32,
    },
    /// The emitter finalized its snapshot `req` (decision taken, `end_snp`
    /// broadcast).
    SnapshotEnd {
        /// Request identifier.
        req: u32,
    },
    /// The emitter won the leader election among concurrent initiators.
    ElectionWon {
        /// The emitter's request identifier.
        req: u32,
    },
    /// The emitter lost the election to `winner` and must wait.
    ElectionLost {
        /// The emitter's request identifier.
        req: u32,
        /// The preferred rival initiator's rank.
        winner: u32,
    },
    /// The emitter withheld its `snp` answer to a non-leader initiator
    /// (the sequentialisation device of §3).
    DelayedAnswer {
        /// The rank of the initiator whose answer is being delayed.
        to: u32,
        /// That initiator's request identifier.
        req: u32,
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
        entries: Entries,
    },
    /// Active memory shrank by `entries` real entries.
    MemFree {
        /// Size of the release, in factor entries.
        entries: Entries,
    },
}

impl ProtocolEvent {
    /// A send of `bytes` bytes to `to`, or a [`ProtocolEvent::StateBroadcast`]
    /// for `None` (all others), with each field narrowed to its stored width.
    pub fn state_send(to: Option<ActorId>, kind: MsgKind, bytes: u64) -> Self {
        let bytes = narrow(bytes);
        match to {
            Some(to) => ProtocolEvent::StateSend {
                to: rank(to),
                kind,
                bytes,
            },
            None => ProtocolEvent::StateBroadcast { kind, bytes },
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

    /// Stable snake_case name of the event variant, the JSONL `ev` field.
    /// Both send variants are `state_send`.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolEvent::StateSend { .. } | ProtocolEvent::StateBroadcast { .. } => "state_send",
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

/// A [`ProtocolEvent`] stamped with simulation time and emitting process:
/// 24 bytes, the rank held as a `u32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    time: SimTime,
    actor: u32,
    event: ProtocolEvent,
}

impl EventRecord {
    /// `event`, stamped with `time` and `actor`.
    ///
    /// # Panics
    /// If `actor`'s rank does not fit in a `u32` ([`rank`]).
    pub fn new(time: SimTime, actor: ActorId, event: ProtocolEvent) -> Self {
        EventRecord {
            time,
            actor: rank(actor),
            event,
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
        self.event
    }
}

/// `key` (a literal `,"key":`) and the value `v`.
fn write_field(out: &mut String, key: &str, v: u32) {
    out.push_str(key);
    write_u64(out, v.into());
}

/// The `"kind"` and `"bytes"` fields of a state-message event.
fn write_kind_bytes(out: &mut String, kind: MsgKind, bytes: u32) {
    out.push_str(",\"kind\":\"");
    out.push_str(kind.name());
    write_field(out, "\",\"bytes\":", bytes);
}

/// The JSONL encoding: `{"t":..,"p":..,"ev":"..",...payload}`.
///
/// A run exports millions of records, so each is written directly: literal
/// key fragments and integers through [`write_u64`], one match on the
/// variant for its payload. `tests::encoder_matches_field_by_field_reference`
/// pins it to a field-by-field rendering of the same record.
impl Serialize for EventRecord {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"t\":");
        write_u64(out, self.time.as_nanos());
        write_field(out, ",\"p\":", self.actor);
        out.push_str(",\"ev\":\"");
        out.push_str(self.event.name());
        out.push('"');
        match self.event {
            ProtocolEvent::StateSend { to, kind, bytes } => {
                write_field(out, ",\"to\":", to);
                write_kind_bytes(out, kind, bytes);
            }
            ProtocolEvent::StateBroadcast { kind, bytes } => {
                out.push_str(",\"to\":null");
                write_kind_bytes(out, kind, bytes);
            }
            ProtocolEvent::StateRecv { from, kind, bytes } => {
                write_field(out, ",\"from\":", from);
                write_kind_bytes(out, kind, bytes);
            }
            ProtocolEvent::SnapshotStart { req }
            | ProtocolEvent::SnapshotEnd { req }
            | ProtocolEvent::ElectionWon { req } => write_field(out, ",\"req\":", req),
            ProtocolEvent::ElectionLost { req, winner } => {
                write_field(out, ",\"req\":", req);
                write_field(out, ",\"winner\":", winner);
            }
            ProtocolEvent::DelayedAnswer { to, req } => {
                write_field(out, ",\"to\":", to);
                write_field(out, ",\"req\":", req);
            }
            ProtocolEvent::DecisionOpen { node } | ProtocolEvent::TaskEnd { node } => {
                write_field(out, ",\"node\":", node);
            }
            ProtocolEvent::DecisionComplete { node, slaves } => {
                write_field(out, ",\"node\":", node);
                write_field(out, ",\"slaves\":", slaves);
            }
            ProtocolEvent::Blocked | ProtocolEvent::Resumed => {}
            ProtocolEvent::TaskStart { node, kind } => {
                write_field(out, ",\"node\":", node);
                out.push_str(",\"kind\":\"");
                out.push_str(kind.name());
                out.push('"');
            }
            ProtocolEvent::MemAlloc { entries } | ProtocolEvent::MemFree { entries } => {
                out.push_str(",\"entries\":");
                write_f64(out, entries.get());
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
        assert_eq!(std::mem::size_of::<ProtocolEvent>(), 12);
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

    /// One event of each of the 16 variants, built from the given field
    /// values; the two send variants first.
    fn every_variant(
        small: u32,
        req: u32,
        to: u32,
        entries: f64,
        msg: MsgKind,
        task: TaskKind,
    ) -> [ProtocolEvent; 16] {
        let entries = Entries::from(entries);
        [
            ProtocolEvent::StateSend {
                to,
                kind: msg,
                bytes: small,
            },
            ProtocolEvent::StateBroadcast {
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
        let evs = every_variant(0, 1, 0, 1.0, MsgKind::Update, TaskKind::Type2Master);
        let mut names: Vec<_> = evs.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        // Only the two send variants share a name.
        assert_eq!(names.len(), evs.len() - 1);
        assert_eq!((evs[0].name(), evs[1].name()), ("state_send", "state_send"));
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

    #[test]
    fn entries_round_trip_bit_for_bit() {
        for x in [
            -0.0,
            f64::from_bits(1), // the smallest subnormal
            f64::MAX,
            f64::from_bits(0x7ff4_dead_beef_0001), // a NaN with a payload
        ] {
            assert_eq!(Entries::from(x).get().to_bits(), x.to_bits(), "{x:?}");
        }
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
            ProtocolEvent::StateBroadcast { kind, bytes } => {
                map.field("to", &None::<u32>)
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
                map.field("entries", &entries.get());
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
        let reqs = [0, 1, u32::MAX];
        let entries = [0.5, -0.0, 1e21, f64::NAN, f64::INFINITY];
        for (&t, &actor) in wide.iter().zip(&actors) {
            for &req in &reqs {
                for &e in &entries {
                    for to in [0, u32::MAX] {
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
            encode(
                1,
                0,
                ProtocolEvent::MemFree {
                    entries: f64::NAN.into()
                }
            ),
            r#"{"t":1,"p":0,"ev":"mem_free","entries":null}"#
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encoder_matches_field_by_field_reference(
            wide_draw in (any::<u64>(), 0..64u32, any::<u32>(), 0..32u32),
            small_draw in (any::<u32>(), 0..32u32, any::<u32>()),
            to in any::<u32>(),
            entries in any::<f64>(),
            kinds in (0..MSG_KINDS.len(), 0..TASK_KINDS.len()),
        ) {
            // Shifts spread the drawn integers over every digit count.
            let (t, t_shift, req, req_shift) = wide_draw;
            let (small, small_shift, actor) = small_draw;
            let (t, actor) = (t >> t_shift, actor as usize);
            let evs = every_variant(
                small >> small_shift,
                req >> req_shift,
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
