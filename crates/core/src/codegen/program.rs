//! Flattened per-rank barrier programs.

use crate::schedule::BarrierSchedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an emitter request cannot be honoured. (A [`BarrierSchedule`]
/// cannot hold a stage of another size or a self-signal — `push` and the
/// JSON reader both reject them — so compiling one has nothing to refuse.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodegenError {
    /// The requested function name is not a valid C/Rust identifier.
    InvalidName { name: String },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::InvalidName { name } => {
                write!(f, "`{name}` is not a valid C/Rust identifier")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// Validates that `name` can be used as a function identifier in both
/// emitted languages.
pub(super) fn validate_name(name: &str) -> Result<(), CodegenError> {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Ok(())
    } else {
        Err(CodegenError::InvalidName {
            name: name.to_string(),
        })
    }
}

/// One step of a rank's program: post all receives, issue all synchronous
/// sends, then wait for the receives to complete before the next step.
/// The sends stay in flight: a rank waits for all of its sends once, after
/// its last step, before it leaves the barrier. (The paper's generator
/// waits on every request at every stage; DESIGN.md §8 says why this one
/// does not.)
///
/// Receives are posted before sends (as the paper's general simulator
/// does with its nonblocking request arrays).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankStep {
    /// Ranks to receive one signal from, in ascending order.
    pub recvs: Vec<usize>,
    /// Ranks to send one signal to, in ascending order.
    pub sends: Vec<usize>,
}

impl RankStep {
    /// True if the step involves no communication.
    pub fn is_empty(&self) -> bool {
        self.recvs.is_empty() && self.sends.is_empty()
    }
}

/// The compiled barrier program of one rank.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankProgram {
    /// The rank this program belongs to.
    pub rank: usize,
    /// Steps in execution order (no-op steps already eliminated).
    pub steps: Vec<RankStep>,
}

impl RankProgram {
    /// Total number of signals this rank sends.
    pub fn send_count(&self) -> usize {
        self.steps.iter().map(|s| s.sends.len()).sum()
    }

    /// Total number of signals this rank receives.
    pub fn recv_count(&self) -> usize {
        self.steps.iter().map(|s| s.recvs.len()).sum()
    }
}

/// Compiles a schedule into one program per rank.
///
/// Per-rank no-op elimination: a rank's program contains only the stages
/// in which it sends or receives, preserving their relative order. This
/// is safe because message matching between a fixed `(src, dst)` pair is
/// FIFO in every backend, and a rank's step boundaries only synchronize
/// its *own* requests — exactly the specialization the paper's generator
/// performs ("the generated test programs specialize the logic of the
/// general model, eliminate no-op transmission steps, etc.").
///
/// # Errors
/// None: the schedule's type upholds everything compilation needs. The
/// `Result` is what callers were written against.
pub fn compile_schedule(schedule: &BarrierSchedule) -> Result<Vec<RankProgram>, CodegenError> {
    let n = schedule.n();
    let mut programs: Vec<RankProgram> = (0..n)
        .map(|rank| RankProgram {
            rank,
            steps: Vec::new(),
        })
        .collect();
    fn open_step(program: &mut RankProgram) -> &mut RankStep {
        program.steps.last_mut().expect("opened for this stage")
    }
    // The stage each rank last opened a step in, so that a stage touches
    // only the ranks that signal in it.
    let mut open_in = vec![usize::MAX; n];
    for (stage_idx, stage) in schedule.stages().iter().enumerate() {
        for (i, j) in stage.matrix.edges() {
            for rank in [i, j] {
                if std::mem::replace(&mut open_in[rank], stage_idx) != stage_idx {
                    programs[rank].steps.push(RankStep::default());
                }
            }
            open_step(&mut programs[i]).sends.push(j);
            open_step(&mut programs[j]).recvs.push(i);
        }
    }
    Ok(programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::schedule::Stage;
    use hbar_matrix::SparseBoolMatrix;

    #[test]
    fn linear_barrier_programs() {
        let members: Vec<usize> = (0..4).collect();
        let sched = Algorithm::Linear.full_schedule(4, &members);
        let progs = compile_schedule(&sched).unwrap();
        // Master: step 0 receives from 1..3, step 1 sends to 1..3.
        assert_eq!(progs[0].steps.len(), 2);
        assert_eq!(progs[0].steps[0].recvs, vec![1, 2, 3]);
        assert!(progs[0].steps[0].sends.is_empty());
        assert_eq!(progs[0].steps[1].sends, vec![1, 2, 3]);
        // Others: one send step, one receive step.
        for prog in &progs[1..4] {
            assert_eq!(prog.steps.len(), 2);
            assert_eq!(prog.steps[0].sends, vec![0]);
            assert_eq!(prog.steps[1].recvs, vec![0]);
        }
    }

    #[test]
    fn noop_stages_are_skipped_per_rank() {
        // Rank 3 is idle in stage 0, active in stage 1.
        let mut sched = BarrierSchedule::new(4);
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(4, [(1, 0)])));
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(4, [(3, 0)])));
        let progs = compile_schedule(&sched).unwrap();
        assert_eq!(progs[3].steps.len(), 1, "idle stage removed");
        assert_eq!(progs[3].steps[0].sends, vec![0]);
        assert_eq!(progs[0].steps.len(), 2, "active in both");
        assert!(progs[2].steps.is_empty(), "fully idle rank has no steps");
    }

    #[test]
    fn send_recv_counts_balance() {
        let members: Vec<usize> = (0..22).collect();
        for alg in [Algorithm::Tree, Algorithm::Dissemination, Algorithm::Linear] {
            let sched = alg.full_schedule(22, &members);
            let progs = compile_schedule(&sched).unwrap();
            let sends: usize = progs.iter().map(RankProgram::send_count).sum();
            let recvs: usize = progs.iter().map(RankProgram::recv_count).sum();
            assert_eq!(sends, recvs, "{alg}");
            assert_eq!(sends, sched.total_signals(), "{alg}");
        }
    }

    #[test]
    fn partner_lists_are_sorted() {
        let members: Vec<usize> = (0..16).collect();
        let sched = Algorithm::Dissemination.full_schedule(16, &members);
        for prog in compile_schedule(&sched).unwrap() {
            for step in &prog.steps {
                assert!(step.sends.windows(2).all(|w| w[0] < w[1]));
                assert!(step.recvs.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
