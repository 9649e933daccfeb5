//! Real OS-thread execution backend for compiled barriers.
//!
//! The paper's generated barriers are C functions executing hard-coded
//! `MPI_Issend`/`MPI_Irecv` sequences. This crate executes the same
//! compiled [`RankProgram`](hbar_core::codegen::RankProgram)s over real
//! threads on the host machine, with pairwise atomic signal cells standing
//! in for MPI point-to-point signals:
//!
//! * a **signal** is an increment of a cache-padded per-`(src, dst)`
//!   counter ([`signal::SignalBoard`]);
//! * the **synchronous-send** property (local completion implies receiver
//!   participation) is an acknowledgement counter incremented by the
//!   receiver when it consumes the signal;
//! * a program **step** sends its signals and consumes its inbound ones
//!   (`Issend* / Irecv* / Waitall` over the receives); a rank waits for
//!   the acknowledgements of all its sends once, before it leaves the
//!   barrier.
//!
//! The host machine is a shared-memory box, so this backend cannot
//! reproduce the inter-node cost cliff (that is the simulator's job); it
//! exists to prove the generated schedules are *correct under real
//! concurrency* and to benchmark schedule execution overhead against
//! classical shared-memory barriers ([`baselines`]).

pub mod baselines;
pub mod executor;
pub mod harness;
pub mod signal;
pub mod sync;

pub use executor::ThreadExecutor;
