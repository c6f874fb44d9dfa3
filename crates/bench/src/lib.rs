//! # loadex-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (§4.3–4.5) and prints them side by side with the published values. The
//! `tables` binary is the command-line front end. Timing these experiments
//! is perfbench's job (`python3 perfbench/run.py`, see `perfbench/NOTES.md`),
//! which also checks the tables cell by cell.
//!
//! Absolute numbers are not expected to match the 2005 IBM SP — the
//! simulated platform is calibrated to the same order of magnitude — but the
//! *shapes* (which mechanism wins, by what factor, where the exceptions are)
//! are the reproduction target. See `EXPERIMENTS.md` at the workspace root.

pub mod experiments;
pub mod paper;
pub mod table;

pub use experiments::*;
pub use table::Table;

/// Public lookups of the paper's published values (for external checks).
pub fn paper_lookup_t5(matrix: &str, nprocs: usize) -> Option<(f64, f64)> {
    paper::table5(matrix, nprocs)
}
/// See [`paper_lookup_t5`].
pub fn paper_lookup_t6(matrix: &str, nprocs: usize) -> Option<(u64, u64)> {
    paper::table6(matrix, nprocs)
}
/// See [`paper_lookup_t5`].
pub fn paper_lookup_t7(matrix: &str, nprocs: usize) -> Option<(f64, f64)> {
    paper::table7(matrix, nprocs)
}
