//! # hbarrier — topology-adaptive barrier synthesis
//!
//! Facade crate re-exporting the full pipeline of this workspace, a
//! from-scratch Rust reproduction of Meyer & Elster, *Optimized Barriers for
//! Heterogeneous Systems Using MPI* (IEEE IPDPS 2011).
//!
//! The pipeline mirrors the paper's two decoupled models:
//!
//! 1. **Topological model** ([`topo`], [`simnet`]): profile every pair of
//!    processes on a (simulated) heterogeneous cluster, extracting the `O`
//!    (startup overhead) and `L` (per-message latency) matrices by
//!    least-squares regression over ping-pong benchmarks.
//! 2. **Algorithmic model** ([`core`]): encode barriers as sequences of
//!    boolean incidence matrices, verify them by knowledge closure, predict
//!    their cost by critical-path analysis against the profile, and greedily
//!    compose a specialized *hybrid* barrier over an SSS cluster tree.
//!
//! Compiled schedules ([`core::codegen::RankProgram`]) execute on either the
//! discrete-event simulator ([`simnet`]) or real OS threads ([`threadrun`]),
//! and are audited before anything runs by the static analyzer ([`analyze`]):
//! schedule lints, deadlock detection over compiled programs, and round-trip
//! verification of the emitted C/Rust sources.
//!
//! ```
//! use hbarrier::prelude::*;
//!
//! // A 2-node, dual-socket, 2-cores-per-socket toy cluster.
//! let machine = MachineSpec::new(2, 2, 2);
//! let profile = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
//!
//! // Tune a hybrid barrier for all 8 ranks and check it synchronizes.
//! let members: Vec<usize> = (0..profile.p).collect();
//! let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
//! assert!(tuned.schedule.is_barrier());
//! ```

pub use hbar_analyze as analyze;
pub use hbar_core as core;
pub use hbar_matrix as matrix;
pub use hbar_serve as serve;
pub use hbar_simnet as simnet;
pub use hbar_threadrun as threadrun;
pub use hbar_topo as topo;

/// Commonly used items for downstream code and the examples.
pub mod prelude {
    pub use hbar_analyze::{analyze_schedule, AnalysisReport, AnalyzeConfig};
    pub use hbar_core::algorithms::{Algorithm, RankSet};
    pub use hbar_core::codegen::{compile_schedule, CodegenError, RankProgram};
    pub use hbar_core::compose::{tune_hybrid_costs, TunedBarrier, TunerConfig};
    pub use hbar_core::cost::{CostEvaluator, CostParams};
    pub use hbar_core::schedule::BarrierSchedule;
    pub use hbar_matrix::{BoolMatrix, DenseMatrix, SparseBoolMatrix};
    pub use hbar_simnet::world::{SimConfig, SimWorld};
    pub use hbar_topo::machine::MachineSpec;
    pub use hbar_topo::mapping::RankMapping;
    pub use hbar_topo::profile::TopologyProfile;
}
