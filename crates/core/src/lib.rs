#![warn(missing_docs)]
//! # loadex-core — load information exchange mechanisms
//!
//! This crate is the primary contribution of the reproduced paper
//! (Guermouche & L'Excellent, *A study of various load information exchange
//! mechanisms for a distributed application using dynamic scheduling*, INRIA
//! RR-5478, 2005): three ways for every process of an asynchronous
//! message-passing application to obtain a view of the load (workload and
//! memory) of all other processes, so that *dynamic scheduling decisions*
//! ("slave selections") can be taken on up-to-date information.
//!
//! * [`NaiveMechanism`] (§2.1, Algorithm 2) — each process broadcasts its
//!   **absolute** load whenever it drifted more than a threshold away from
//!   the last broadcast value. Cheap, but decisions may not see the effect of
//!   other in-flight decisions (the Figure 1 incoherence). As an extension,
//!   [`NaiveMechanism::heartbeat`] broadcasts on a timer instead (the
//!   `periodic` mechanism of the harness).
//! * [`IncrementMechanism`] (§2.2, Algorithm 3) — processes broadcast **load
//!   increments**, and every slave selection is announced to everybody with a
//!   `MasterToAll` reservation message, so a decision is visible system-wide
//!   before the selected slaves even receive their work. Includes the
//!   §2.3 `NoMoreMaster` traffic optimisation.
//! * [`SnapshotMechanism`] (§3) — demand-driven: a process that needs a view
//!   initiates a Chandy–Lamport-style distributed snapshot. Concurrent
//!   snapshots are *sequentialised* through a rank-based distributed leader
//!   election with delayed answers, so the `k+1`-th decision always sees the
//!   `k`-th one.
//!
//! The mechanisms are **pure state machines**: they consume local load
//! variations and incoming state messages, and emit outgoing messages into an
//! [`Outbox`]. They know nothing about threads, event loops or clocks, so the
//! exact same code runs inside the discrete-event simulator (`loadex-solver`)
//! and on real threads (`loadex-net::ThreadNetwork`) — mirroring how the
//! paper's mechanisms were embedded both in plain MPI progress loops and in a
//! dedicated communication thread (§4.5).

pub mod gossip;
pub mod increments;
pub mod load;
pub mod mech;
pub mod msg;
pub mod naive;
pub mod outbox;
pub mod snapshot;
pub mod view;

pub use gossip::GossipMechanism;
pub use increments::IncrementMechanism;
pub use load::{Load, Threshold};
pub use mech::{AnyMechanism, ChangeOrigin, Gate, MechKind, MechStats, Mechanism, Notify};
pub use msg::StateMsg;
pub use naive::NaiveMechanism;
pub use outbox::{Dest, OutMsg, Outbox};
pub use snapshot::{LeaderPolicy, SnapshotMechanism};
pub use view::LoadTable;
