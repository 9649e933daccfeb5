//! Topological cost model of a heterogeneous cluster.
//!
//! Section IV of Meyer & Elster (IPDPS 2011) reduces the cost of signalling
//! between processes to three empirically measurable parameters, collected in
//! two `P × P` matrices:
//!
//! * `O_ij` (`i ≠ j`) — the cost of sending one message from process `i` to
//!   process `j` (Hockney intercept of a ping-pong regression);
//! * `O_ii` — the software overhead of initiating a communication call that
//!   causes no transmission;
//! * `L_ij` — the marginal cost of adding one more message to a non-empty
//!   set of messages sent simultaneously from `i`.
//!
//! From these, the cost of a send set from `i` to recipients `J` is
//!
//! ```text
//! Eq. 1:  t(i, J) = max_k O_{i,J_k} + Σ_k L_{i,J_k}     (general case)
//! Eq. 2:  t(i, J) = O_ii           + Σ_k L_{i,J_k}     (receivers already waiting)
//! ```
//!
//! This crate provides the machine descriptions the simulator executes
//! against ([`machine`]), the rank→core placements that stand in for
//! `sched_setaffinity` ([`mapping`]), the cost matrices and Eq. 1/Eq. 2
//! ([`cost`]), the regression statistics used to extract parameters from
//! benchmark samples ([`regress`]), on-disk profiles ([`profile`]), the
//! symmetrized metric view needed by SSS clustering ([`metric`]), heat-map
//! rendering for Fig. 9 ([`heatmap`]), and the feature-vector pair
//! classes ([`features`]) — §IV-B's "replicate component submatrices"
//! shortcut, generalized — that the decomposed profiling sweep clusters
//! on. For machines past P ≈ 4096,
//! [`compressed`] stores the same model as a `u16` class table over pairs
//! of rank *kinds* plus per-class value tables (megabytes where the
//! matrices are gigabytes), and [`cost::CostProvider`] abstracts over both
//! storages so the tuner never needs the dense matrices.

pub mod compressed;
pub mod cost;
pub mod features;
pub mod heatmap;
pub mod library;
pub mod machine;
pub mod mapping;
pub mod metric;
pub mod profile;
pub mod regress;

pub use compressed::{ClassMap, CompressError, CompressedCostModel, ModelParts, MAX_CLASSES};
pub use cost::{
    cost_fingerprint, CostFingerprint, CostMatrices, CostProvider, SendMode,
    COST_FINGERPRINT_VERSION,
};
pub use features::{
    ExactExtractor, PairFeatureExtractor, PairFeatures, RankFeatures, TopologyExtractor,
};
pub use machine::{CoreId, GroundTruth, LinkClass, MachineSpec};
pub use mapping::RankMapping;
pub use metric::DistanceMetric;
pub use profile::{CompactProfile, StoredProfile, TopologyProfile};
