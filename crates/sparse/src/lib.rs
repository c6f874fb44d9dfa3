#![warn(missing_docs)]
//! # loadex-sparse — sparse matrix substrate
//!
//! The paper evaluates its load-exchange mechanisms inside MUMPS, a parallel
//! multifrontal sparse direct solver. The solver's task graph is the
//! **assembly tree** derived from the matrix: each node is the partial
//! factorization of a dense *frontal matrix*, children must complete before
//! their parent (§4.1).
//!
//! This crate builds that substrate from scratch:
//!
//! * [`pattern`] — symmetric sparsity patterns (CSR-like adjacency).
//! * [`gen`] — problem generators: 2D/3D grid Laplacians, random patterns,
//!   band matrices.
//! * [`order`] — fill-reducing orderings: reverse Cuthill–McKee and a
//!   BFS-separator nested dissection (standing in for METIS, which the paper
//!   uses).
//! * [`etree`] — elimination trees, postorders, column counts.
//! * [`symbolic`] — supernode detection, relaxed amalgamation, and assembly
//!   tree construction.
//! * [`tree`] — the [`AssemblyTree`] with the dense
//!   partial-factorization flop/memory cost model.
//! * [`models`] — the 11 test problems of the paper's Tables 1–2 as
//!   calibrated synthetic assembly trees (the original PARASOL / Tim Davis
//!   matrices are not redistributable; see DESIGN.md for the substitution
//!   rationale).

pub mod etree;
pub mod gen;
pub mod models;
pub mod order;
pub mod pattern;
pub mod symbolic;
pub mod tree;

pub use models::{paper_matrices, MatrixModel, ProblemSet};
pub use pattern::SparsePattern;
pub use tree::{AssemblyTree, FrontNode, Symmetry};
