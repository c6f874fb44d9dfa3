//! # loadex — load information exchange mechanisms for distributed dynamic scheduling
//!
//! A Rust reproduction of *“A study of various load information exchange
//! mechanisms for a distributed application using dynamic scheduling”*
//! (A. Guermouche, J.-Y. L'Excellent, INRIA RR-5478, 2005).
//!
//! This umbrella crate re-exports the public API of the workspace:
//!
//! * [`sim`] — deterministic discrete-event simulation engine.
//! * [`net`] — message-passing substrate (simulated network with a priority
//!   *state* channel, plus a real multi-threaded transport).
//! * [`core`] — the paper's contribution: the **naive**, **increment-based**
//!   and **snapshot-based** load-information exchange mechanisms.
//! * [`sparse`] — the multifrontal task graph: assembly trees with their
//!   cost model, and calibrated models of the paper's test matrices.
//! * [`solver`] — a MUMPS-like asynchronous multifrontal solver simulator
//!   with memory-based and workload-based dynamic scheduling.
//! * [`obs`] — observability: typed protocol events, a metrics registry
//!   (counters, gauges, log-scale histograms), and JSONL / Chrome
//!   `trace_event` exporters.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

pub use loadex_core as core;
pub use loadex_net as net;
pub use loadex_obs as obs;
pub use loadex_sim as sim;
pub use loadex_solver as solver;
pub use loadex_sparse as sparse;
