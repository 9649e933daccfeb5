//! Dense matrix types used throughout the barrier-synthesis pipeline.
//!
//! The algorithmic model of Meyer & Elster (IPDPS 2011) encodes a barrier as
//! a sequence of boolean *incidence matrices* `S_0, S_1, …, S_k`, where row
//! `i` of `S_a` lists the ranks that process `i` signals in step `a`.
//! Verifying that such a sequence actually synchronizes all processes is a
//! fixed-point computation over boolean matrix products (the paper's Eq. 3),
//! and costing it couples the boolean structure to `f64` cost matrices.
//!
//! This crate provides the matrix types those computations need:
//!
//! * [`SparseBoolMatrix`] — a stage's incidence matrix as what it is: the
//!   sorted list of its signals in compressed-row form, `O(signals)` to
//!   build, transpose, embed and walk at any `P`.
//! * [`BoolMatrix`] — a bitset-backed square boolean matrix with the
//!   and/or (boolean semiring) product, saturating addition, and transpose:
//!   the knowledge matrices of Eq. 3, and the dense view of a stage for
//!   printing and small-size tests.
//! * [`DenseMatrix`] — a row-major generic dense matrix, used with `f64`
//!   entries for the topological cost matrices `O` and `L`.
//!

pub mod boolmat;
pub mod dense;
pub mod reach;
pub mod sparse;

pub use boolmat::BoolMatrix;
pub use dense::DenseMatrix;
pub use reach::{knowledge_closure, walk_knowledge, ClosureWorkspace};
pub use sparse::SparseBoolMatrix;
