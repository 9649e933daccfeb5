//! Compilation of barrier schedules into executable artifacts.
//!
//! §VII-C of the paper: "we measure the performance of the optimized
//! barrier algorithms after the use of a code generator, which takes a
//! matrix sequence as input, and emits a specific barrier implemented by a
//! hard-coded sequence of synchronous point-to-point sends", with no-op
//! transmission steps eliminated.
//!
//! [`compile_schedule`] flattens a schedule into [`RankProgram`]s: per
//! rank, a list of steps holding the exact receive and send partners, with
//! stages the rank does not participate in removed. The discrete-event
//! simulator runs them directly; [`c_source`] emits them as the paper's
//! artifact, one C function of hard-coded MPI calls, which the test suite
//! compiles and runs on threads under the §VI delay check.

mod c_src;
mod program;

pub use c_src::c_source;
pub use program::{compile_schedule, CodegenError, RankProgram, RankStep};
