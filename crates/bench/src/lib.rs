//! Reproduction harness for every figure of Meyer & Elster (IPDPS 2011).
//!
//! The paper's evaluation consists of Figures 5–11:
//!
//! | Figure | Content | Module |
//! |---|---|---|
//! | 5 | predicted vs measured D/T/L, cluster A (8 × dual quad) | [`validation`] |
//! | 6 | predicted vs measured D/T/L, cluster B (10 × dual hex) | [`validation`] |
//! | 7 | per-algorithm overlays, cluster A | [`validation`] |
//! | 8 | per-algorithm overlays, cluster B | [`validation`] |
//! | 9 | `L`-matrix heat map of one dual quad-core node | [`heatmap`] |
//! | 10 | hybrid construction walkthrough, 3 nodes / 22 procs | [`construction`] |
//! | 11 | hybrid vs MPI barrier on both clusters | [`performance`] |
//!
//! [`run_figures`] makes any subset of them in one run (`hbar figures`).
//!
//! Every experiment follows the paper's methodology end to end: profiles
//! are *measured* on the noisy simulator by the §IV-A benchmarks (never
//! read from the ground truth), predictions come from the Eq. 1–3 model,
//! and measurements come from executing compiled schedules on the same
//! simulated fabric.

pub mod ablation;
pub mod construction;
pub mod context;
pub mod data;
pub mod delay;
pub mod figures;
pub mod heatmap;
pub mod performance;
pub mod plot;
pub mod validation;

pub use context::ExperimentContext;
pub use data::{Series, SeriesGroup};
pub use figures::{run_figures, FIGURES};
