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
//! * [`EventQueue`] — a calendar of per-instant FIFO buckets ordered by
//!   time, so that two events scheduled for the same instant are handled in
//!   the order they were scheduled. This makes every run bit-reproducible.
//!   The earliest bucket sits apart, so pops and same-instant pushes touch
//!   no map, and drained buckets are reused (up to a bound) rather than
//!   allocated afresh.
//! * [`Simulator`] / [`World`] — the run loop. The `World` owns all process
//!   state; the simulator owns time and the calendar.
//! * Fan-out entries — [`Scheduler::schedule_fanout_at`] puts one event for
//!   many actors on the calendar as a single entry, so a broadcast to `P−1`
//!   processes costs one calendar push and pop instead of `P−1`. Its
//!   destinations are a [`Dests`]: an all-but-sender rank range or a shared
//!   [`RankSet`] travels as is, and only an arbitrary order is a list. On
//!   delivery the simulator hands the whole entry to the world in one
//!   [`World::handle_fanout`] call, which takes the destinations one at a
//!   time from [`Recipients`], one processed step each, before the calendar
//!   pops again (the provided method makes one [`World::handle`] call per
//!   destination). That is exactly the order of `P−1` separate entries: they
//!   would sit back to back in their instant's FIFO bucket, so no other
//!   entry could pop between them, and anything scheduled while they are
//!   handled joins the bucket behind them and pops after the last one. A
//!   stop or the event limit reached part-way leaves the rest pending for
//!   the next step.
//! * [`Backlog`] — messages that wait for busy actors, with each fan-out's
//!   message buffered once for all its busy destinations instead of once
//!   per destination.
//! * [`rng`] — a small, self-contained, splittable PRNG (SplitMix64 and
//!   xoshiro256**) so that simulation randomness is stable across platforms
//!   and dependency versions.
//! * [`stats`] — streaming count, mean and max (Welford) for the accuracy
//!   probe.
//!
//! The engine is deliberately generic: the network model lives in
//! `loadex-net`, the application (a multifrontal solver) in `loadex-solver`.

pub mod backlog;
pub mod dests;
pub mod engine;
pub mod queue;
pub mod rankset;
pub mod rng;
pub mod stats;
pub mod time;

pub use backlog::Backlog;
pub use dests::Dests;
pub use engine::{ActorId, Recipients, Scheduler, SimConfig, Simulator, StopReason, World};
pub use queue::EventQueue;
pub use rankset::RankSet;
pub use rng::{SimRng, SplitMix64};
pub use stats::Welford;
pub use time::{SimDuration, SimTime};
