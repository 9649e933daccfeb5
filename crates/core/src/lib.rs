//! Algorithmic model and adaptive tuner for barrier synthesis.
//!
//! This crate is the primary contribution of Meyer & Elster (IPDPS 2011),
//! rebuilt in Rust:
//!
//! * [`schedule`] — barriers as sequences of boolean incidence matrices
//!   (`S_0 … S_k`, §V-A), with the transposition/reversal and embedding
//!   operations the hierarchical composer needs;
//! * [`verify`] — the Eq. 3 knowledge-closure test that a stage sequence
//!   actually synchronizes all participants;
//! * [`algorithms`] — the paper's three component algorithms (linear,
//!   dissemination, binary tree, §V-B) plus the generalizations suggested
//!   as future work (k-ary trees, binomial tree, butterfly);
//! * [`cost`] — the layered critical-path cost model coupling schedules to
//!   measured `O`/`L` matrices via Eq. 1 / Eq. 2 (§VI);
//! * [`clustering`] — sparse-spatial-centers rank clustering and the
//!   recursive cluster tree (§VII-A);
//! * [`compose`] — the greedy hierarchical hybrid construction (§VII-B);
//! * [`codegen`] — compilation of schedules into flattened per-rank
//!   programs (the role of the paper's generated, hard-coded C barriers),
//!   plus C and Rust source emitters;
//! * [`adaptive`] — the §VIII future-work scheme: estimating when
//!   re-tuning under changed conditions amortizes over the remaining
//!   synchronizations.

pub mod adaptive;
pub mod algorithms;
pub mod clustering;
pub mod codegen;
pub mod compose;
pub mod cost;
pub mod schedule;
pub mod verify;

pub use algorithms::Algorithm;
pub use compose::{tune_hybrid_costs, TunedBarrier, TunerConfig};
pub use cost::{cost_fingerprint, CostEvaluator, CostParams, Prediction, COST_FINGERPRINT_VERSION};
pub use schedule::{BarrierSchedule, Stage};
