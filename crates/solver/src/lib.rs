#![warn(missing_docs)]
//! # loadex-solver — a MUMPS-like asynchronous multifrontal solver simulator
//!
//! This crate reproduces the *application* of the paper (§4): an
//! asynchronous parallel multifrontal factorization with distributed dynamic
//! scheduling, running on the `loadex-sim` discrete-event engine and
//! exchanging load information through the `loadex-core` mechanisms.
//!
//! The pieces, mirroring §4.1–4.2:
//!
//! * [`mapping`] — the static phase: Geist–Ng-style proportional mapping of
//!   leaf subtrees, Type 1/2/3 classification, static master assignment
//!   balancing factor memory.
//! * [`sched`] — the dynamic phase: **memory-based** (§4.2.1) and
//!   **workload-based** (§4.2.2) slave selection by irregular 1D row
//!   blocking with granularity constraints, plus memory-aware task
//!   selection.
//! * `process` (internal) — Algorithm 1 per process, written once for both
//!   backends: receive state messages first, then application messages,
//!   else compute; masters open a dynamic decision at every Type 2
//!   activation. The procedures run over a per-process `Proc` and a small
//!   `Host` trait each backend implements.
//! * [`engine`] — the discrete-event backend driving those procedures.
//!   Supports the single-threaded model (a process cannot compute and
//!   communicate simultaneously) and the §4.5 threaded variant (a
//!   communication thread polls the state channel every 50 µs and pauses the
//!   computation during snapshots).
//! * [`report`] — everything the paper's tables measure: factorization time,
//!   per-process active-memory peaks, state-message counts, decision counts,
//!   snapshot time breakdowns.
//! * [`threaded`] — the real-thread execution backend driving the same
//!   procedures: one OS thread per process over `loadex_net::thread`
//!   endpoints, with the §4.5 dedicated communication thread as an option.
//! * [`run`](mod@run) — the [`Runtime`] entry point dispatching between the two
//!   backends, plus one-call wrappers.

pub mod config;
pub mod engine;
pub mod error;
pub mod mapping;
mod process;
pub mod report;
pub mod run;
pub mod sched;
pub mod threaded;
mod work;

pub use config::{CommMode, ExecBackend, SolverConfig, Strategy, ThreadedBackend};
pub use error::{ConfigError, RunError};
pub use mapping::{NodeType, TreePlan};
pub use report::RunReport;
pub use run::{derive_threshold, run, run_observed, Runtime};
