//! Rank clustering over the topological metric (§VII-A).
//!
//! "A common, important observation … is that the layers of the
//! interconnect divide processes into closely coupled subsets, separated
//! by remote links which are orders of magnitude slower than local
//! communication." The paper discovers those subsets with sparse spatial
//! centers (SSS) clustering, which only requires a metric space — the
//! reason the topological profile is kept symmetric.
//!
//! Alongside the rank clustering lives its profiling-side dual
//! ([`pairs`](self)): exact equivalence classing of *pairs* by feature
//! vector, which the decomposed profiling sweep uses to measure one
//! representative per class instead of all `|P|²` pairs.

mod pairs;
mod sss;
mod tree;

pub use pairs::{classify_pairs, splitmix64, ClassingConfig, PairClass, PairClassing};
pub use sss::{
    sss_clusters, try_sss_clusters, try_sss_clusters_with, ClusterError, SssScratch,
    SSS_DEFAULT_SPARSENESS,
};
pub use tree::{build_cluster_tree, try_build_cluster_tree, ClusterNode};
