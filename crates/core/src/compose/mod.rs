//! Greedy hierarchical barrier composition (§VII-B of the paper).
//!
//! "The overall approach is to traverse the tree of clusters and evaluate
//! all three algorithms on the cluster level, greedily selecting the one
//! with the lowest predicted cost of its arrival phases. The next step is
//! to traverse the tree bottom-up, combining the local barriers on the
//! same level into an overall structure for complete arrival, before
//! inferring the departure phases by a reversed sequence of transpose
//! matrices."
//!
//! Two details from the paper are reproduced exactly:
//!
//! * **Early merging** — concurrent local barriers of differing stage
//!   counts are embedded into one stage sequence aligned at their first
//!   stage ("merging shorter sequences with longer ones as early as
//!   possible").
//! * **Root dissemination rule** — dissemination at the root is exempt
//!   from the departure transposition, because its arrival phases leave
//!   every top-level representative fully informed.
//!
//! A candidate is scored by its full local schedule: its arrival, then the
//! transposed Eq. 2 departure unless the root rule skips it. The paper's
//! arrival × 2 prices that cheaper departure as a second arrival and picks
//! a costlier root on cluster A at P = 64 (EXPERIMENTS.md). Dissemination
//! is scored at one n-way radix per stage count, so the model picks the
//! radix; [`TunerConfig::paper`] fixes radix 2.
//!
//! Beyond the paper, the root is chosen in context: each root candidate
//! is priced after its children's arrival and before their departure,
//! which is the predicted cost of the whole composed barrier. Below the
//! root a level's context depends on its parent's choice, so the local
//! rule stays.

mod exhaustive;
mod greedy;

pub use exhaustive::{search_optimal_barrier, SearchConfig, SearchResult};
pub(crate) use greedy::LocalSchedules;
pub use greedy::{
    level_candidates, tune_hybrid_costs, tune_hybrid_costs_with, LevelChoice, TunedBarrier,
    TunerConfig,
};
