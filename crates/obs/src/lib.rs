//! # loadex-obs — observability for the load-exchange protocols
//!
//! The paper's argument is entirely *observational*: message counts
//! (Table 6), blocking time under concurrent snapshots (§4.5), and the
//! coherence of each process's load view. This crate is the one place all
//! of that is captured:
//!
//! * [`ProtocolEvent`] — a typed event taxonomy replacing stringly-typed
//!   trace records, 12 bytes each (message and task kinds are the one-byte
//!   [`MsgKind`] and [`TaskKind`]). The mechanisms (`loadex-core`) stage their events and
//!   the solver (`loadex-solver`) stamps them, with its own, into the run's
//!   [`Recorder`]: that is the one event source. The recorder keeps each
//!   event, stamped with its time and rank, as a 24-byte [`EventRecord`].
//! * [`Recorder`] — a cloneable event sink. Disabled recorders are a single
//!   pointer-is-none check per emission site, so instrumented hot paths cost
//!   nothing in the default configuration.
//! * [`MetricsRegistry`] — named log-scale-bucket [`Histogram`]s;
//!   snapshotted into a serializable [`MetricsSnapshot`], to which the run
//!   report adds its counters and gauges.
//! * Exporters — [`jsonl::write_to`] (one JSON object per event line,
//!   streamed) and [`chrome::write_to`] (Chrome `trace_event` format: open
//!   the file in `chrome://tracing` or <https://ui.perfetto.dev>).
//! * [`span`] — per-process Busy/Blocked/Idle spans reconstructed from the
//!   event stream, plus the ASCII Gantt renderer used by `examples/gantt.rs`.
//! * [`ViewAccuracyProbe`] — ground truth vs. believed `LoadTable`s:
//!   time-weighted view error, staleness, and decision-regret accounting
//!   (the paper's missing "quality" axis; see DESIGN.md).
//! * [`ProtocolAuditor`] — checks recorded event streams against the
//!   protocol invariants of §2–§3 and returns typed [`Violation`]s.

#![warn(missing_docs)]

pub mod accuracy;
pub mod audit;
pub mod chrome;
pub mod clock;
pub mod event;
pub mod jsonl;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use accuracy::{AccuracyPoint, AccuracyReport, AccuracySummary, ViewAccuracyProbe};
pub use audit::{AuditReport, ProtocolAuditor, Violation};
pub use clock::WallClock;
pub use event::{EventRecord, MsgKind, ProtocolEvent, TaskKind};
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use recorder::Recorder;
pub use span::{Span, SpanState};
