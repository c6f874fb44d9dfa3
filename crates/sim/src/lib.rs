#![warn(missing_docs)]
//! # loadex-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate used to reproduce the
//! experimental platform of Guermouche & L'Excellent (RR-5478, 2005): a
//! distributed asynchronous system of `N` processes communicating only by
//! message passing.
//!
//! The engine is a classical calendar-queue discrete-event simulator:
//!
//! * [`SimTime`] — simulated time in integer nanoseconds (no floating-point
//!   drift, total order, deterministic).
//! * [`EventQueue`] — a binary-heap calendar with stable FIFO tie-breaking so
//!   that two events scheduled for the same instant are handled in the order
//!   they were scheduled. This makes every run bit-reproducible.
//! * [`Simulator`] / [`World`] — the run loop. The `World` owns all process
//!   state; the simulator owns time and the calendar.
//! * Fan-out entries — [`Scheduler::schedule_fanout_at`] puts one event for
//!   many actors on the calendar as a single entry, so a broadcast to `P−1`
//!   processes costs one calendar push and pop instead of `P−1`. On delivery
//!   the simulator hands each destination its own copy, one
//!   [`World::handle`] call and one processed step each, before it pops the
//!   calendar again. That is exactly the order of `P−1` separate entries:
//!   they would share a time and take consecutive sequence numbers, so no
//!   other entry could pop between them, and anything scheduled while they
//!   are handled gets a larger sequence number and pops after the last one.
//! * [`rng`] — a small, self-contained, splittable PRNG (SplitMix64 and
//!   xoshiro256**) so that simulation randomness is stable across platforms
//!   and dependency versions.
//! * [`stats`] — streaming moments (Welford) for the accuracy probe.
//!
//! The engine is deliberately generic: the network model lives in
//! `loadex-net`, the application (a multifrontal solver) in `loadex-solver`.

pub mod engine;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{ActorId, Scheduler, SimConfig, Simulator, StopReason, World};
pub use queue::EventQueue;
pub use rng::{SimRng, SplitMix64};
pub use stats::Welford;
pub use time::{SimDuration, SimTime};
