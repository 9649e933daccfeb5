//! Discrete-event simulation of heterogeneous clusters.
//!
//! This crate is the stand-in for the paper's physical testbeds (see
//! DESIGN.md §1, substitution 1): an event-driven model of processes pinned
//! to cores, exchanging zero- or small-payload messages through a
//! three-level interconnect (shared socket, cross socket, inter-node) with
//! serial per-resource occupancies (sender CPU, per-node NIC TX/RX,
//! receiver CPU) and seeded measurement noise.
//!
//! The execution semantics mirror what the paper relies on from OpenMPI:
//! **synchronous sends** (`MPI_Issend`) whose local completion implies the
//! receiver participated, nonblocking receives, and per-step `Waitall`.
//! Processes run little instruction [`program`]s, which is exactly how the
//! paper's general simulator executes matrix-encoded barriers.
//!
//! * [`engine`] — the event queue and process interpreter;
//! * [`world`] — user-facing configuration and runs;
//! * [`noise`] — multiplicative jitter plus rare preemption spikes;
//! * [`benchprog`] — the §IV-A profiling workloads (ping-pong size sweep,
//!   multi-message bursts, transmission-free calls);
//! * [`profiling`] — the §IV-A pair benchmark schedule, its noise
//!   sub-seeds and the regression of one pair's `(O_ij, L_ij)`;
//! * [`sweep`] — the one profiling sweep, exhaustive
//!   ([`SweepConfig::exact`]: every pair, as the paper measures) or
//!   pair-clustered (representatives + validation probes), over any
//!   [`DescriptorExecutor`], in process on the work-stealing
//!   [`LocalExecutor`];
//! * [`scatter`] — the out-of-core class-grid scatter that writes the
//!   sweep's results into a [`hbar_topo::CompressedCostModel`]
//!   tile-at-a-time under a memory budget, for `P ≫ 4096`;
//! * [`barrier`] — compiled barrier execution and the staggered-delay
//!   synchronization check of §VI.

pub mod barrier;
pub mod benchprog;
pub mod engine;
pub mod noise;
pub mod profiling;
pub mod program;
pub mod scatter;
pub mod sweep;
pub mod trace;
pub mod world;

pub use noise::{NoiseModel, NoiseState};
pub use program::{Instr, Program};
pub use scatter::{measure_profile_compressed, SpillConfig, SpillReport};
pub use sweep::{
    measure_profile_decomposed, DescriptorExecutor, LocalExecutor, PairSample, PairWorkDescriptor,
    SweepConfig, SweepError, SweepReport, WorkKind,
};
pub use world::{SimConfig, SimResult, SimWorld};

/// Virtual time in integer nanoseconds.
pub type Time = u64;

/// Converts virtual nanoseconds to seconds.
pub fn ns_to_sec(t: Time) -> f64 {
    t as f64 * 1e-9
}
