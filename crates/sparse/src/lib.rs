#![warn(missing_docs)]
//! # loadex-sparse — the multifrontal task graph
//!
//! The paper evaluates its load-exchange mechanisms inside MUMPS, a parallel
//! multifrontal sparse direct solver. The solver's task graph is the
//! **assembly tree** derived from the matrix: each node is the partial
//! factorization of a dense *frontal matrix*, children must complete before
//! their parent (§4.1). The matrices reach the mechanisms only through these
//! trees, so this crate holds the trees, not the matrices:
//!
//! * [`tree`] — the [`AssemblyTree`] with the dense
//!   partial-factorization flop/memory cost model.
//! * [`models`] — the 11 test problems of the paper's Tables 1–2 as
//!   calibrated synthetic assembly trees (the original PARASOL / Tim Davis
//!   matrices are not redistributable; see DESIGN.md for the substitution
//!   rationale).

pub mod models;
pub mod tree;

pub use models::{paper_matrices, MatrixModel, ProblemSet};
pub use tree::{AssemblyTree, FrontNode, Symmetry};
