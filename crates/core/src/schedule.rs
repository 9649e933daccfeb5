//! Barrier schedules: ordered sequences of signal stages.
//!
//! §V-A of the paper: "we choose to represent an overall algorithm as a
//! sequence of steps 0, 1, …, k, in which each process may signal any
//! combination of other processes, where the signals sent in each step
//! must be received before subsequent steps can begin."
//!
//! A [`Stage`] carries its signals — a [`SparseBoolMatrix`]: the senders,
//! ascending, each with its ascending target list — plus the [`SendMode`]
//! the cost model should apply: arrival phases use Eq. 1 (receivers may
//! still be computing), departure phases use Eq. 2 (receivers are known to
//! block inside the barrier already). The `P × P` incidence matrix of the
//! paper is a view of a stage (`stage.matrix.to_dense()`, used by
//! `Display`), never its storage: composing, transposing, pricing,
//! verifying and compiling a schedule are all `O(signals)` per stage. The
//! JSON form is the dense image all the same, byte for byte what the
//! bitset stages wrote.

use hbar_matrix::SparseBoolMatrix;
use hbar_topo::cost::SendMode;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One step of a barrier: who signals whom, and under which cost equation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    pub matrix: SparseBoolMatrix,
    pub mode: SendMode,
}

impl Stage {
    /// An arrival-phase stage (Eq. 1 cost).
    pub fn arrival(matrix: SparseBoolMatrix) -> Self {
        Stage {
            matrix,
            mode: SendMode::General,
        }
    }

    /// A departure-phase stage (Eq. 2 cost).
    pub fn departure(matrix: SparseBoolMatrix) -> Self {
        Stage {
            matrix,
            mode: SendMode::ReceiversAwaiting,
        }
    }
}

/// A complete signal pattern for `n` processes.
///
/// Every stage is `n × n` and no rank signals itself: [`Self::push`]
/// panics on a stage that breaks this, and reading a schedule from JSON
/// rejects it, so nothing downstream re-validates.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct BarrierSchedule {
    n: usize,
    stages: Vec<Stage>,
}

/// The stage invariants, as a message naming the offender.
fn check_stage(n: usize, stage: &Stage) -> Result<(), String> {
    let m = stage.matrix.n();
    if m != n {
        return Err(format!(
            "stage is {m}x{m} but the schedule covers {n} ranks"
        ));
    }
    match stage.matrix.first_self_loop() {
        Some(i) => Err(format!("rank {i} signals itself")),
        None => Ok(()),
    }
}

impl Deserialize for BarrierSchedule {
    fn from_value(value: &serde::Value) -> Result<Self, String> {
        const WHAT: &str = "BarrierSchedule";
        let n = Deserialize::from_value(serde::__field(value, "n", WHAT)?)?;
        let stages: Vec<Stage> = Deserialize::from_value(serde::__field(value, "stages", WHAT)?)?;
        for (k, stage) in stages.iter().enumerate() {
            check_stage(n, stage).map_err(|e| format!("stage {k}: {e}"))?;
        }
        Ok(BarrierSchedule { n, stages })
    }
}

impl BarrierSchedule {
    /// An empty schedule over `n` processes.
    pub fn new(n: usize) -> Self {
        BarrierSchedule {
            n,
            stages: Vec::new(),
        }
    }

    /// Builds from arrival-phase matrices (all stages get Eq. 1 mode).
    pub fn from_arrival_matrices(n: usize, matrices: Vec<SparseBoolMatrix>) -> Self {
        let mut s = Self::new(n);
        s.stages.reserve_exact(matrices.len());
        for m in matrices {
            s.push(Stage::arrival(m));
        }
        s
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the schedule has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stages in execution order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Bytes of heap this schedule holds: the stage vector and every
    /// stage's sender, offset and target vectors — 4 bytes per signal and
    /// 8 per sending rank per stage, whatever `n` is. Cache budgets that
    /// retain schedules must charge this, not
    /// `size_of::<BarrierSchedule>()`.
    pub fn heap_bytes(&self) -> usize {
        self.stages.capacity() * std::mem::size_of::<Stage>()
            + self
                .stages
                .iter()
                .map(|s| s.matrix.heap_bytes())
                .sum::<usize>()
    }

    /// Appends a stage.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if any process signals itself.
    pub fn push(&mut self, stage: Stage) {
        if let Err(e) = check_stage(self.n, &stage) {
            panic!("{e}");
        }
        self.stages.push(stage);
    }

    /// Appends all stages of `other`.
    pub fn append(&mut self, other: BarrierSchedule) {
        assert_eq!(other.n, self.n, "schedule dimension mismatch");
        self.stages.extend(other.stages);
    }

    /// Total number of signals across all stages.
    pub fn total_signals(&self) -> usize {
        self.stages.iter().map(|s| s.matrix.popcount()).sum()
    }

    /// The departure sequence implied by this arrival sequence: the same
    /// matrices transposed, applied in reverse order (paper §V-B), marked
    /// with Eq. 2 mode. `skip_last` drops that many trailing arrival stages
    /// from the transposition — used when the root level is a dissemination
    /// barrier, whose stages require no departure (§VII-B).
    pub fn departure_reversed(&self, skip_last: usize) -> BarrierSchedule {
        assert!(
            skip_last <= self.stages.len(),
            "cannot skip {skip_last} of {} stages",
            self.stages.len()
        );
        let take = self.stages.len() - skip_last;
        BarrierSchedule {
            n: self.n,
            // A transpose keeps the diagonal clear and the dimension.
            stages: self.stages[..take]
                .iter()
                .rev()
                .map(|s| Stage::departure(s.matrix.transpose()))
                .collect(),
        }
    }

    /// Removes stages that carry no signal ("eliminate no-op transmission
    /// steps", §VII-C), returning how many were removed.
    pub fn strip_noop_stages(&mut self) -> usize {
        let before = self.stages.len();
        self.stages.retain(|s| !s.matrix.is_zero());
        before - self.stages.len()
    }

    /// Verifies the schedule synchronizes all `n` processes (Eq. 3).
    pub fn is_barrier(&self) -> bool {
        crate::verify::is_barrier(self)
    }
}

impl fmt::Display for BarrierSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BarrierSchedule over {} ranks, {} stages:",
            self.n,
            self.stages.len()
        )?;
        for (k, s) in self.stages.iter().enumerate() {
            let mode = match s.mode {
                SendMode::General => "arrival",
                SendMode::ReceiversAwaiting => "departure",
            };
            writeln!(f, "S{k} ({mode}, {} signals):", s.matrix.popcount())?;
            writeln!(f, "{}", s.matrix.to_dense())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn linear(n: usize) -> BarrierSchedule {
        let s0 = SparseBoolMatrix::from_edges(n, (1..n).map(|i| (i, 0)));
        let s1 = s0.transpose();
        let mut sched = BarrierSchedule::new(n);
        sched.push(Stage::arrival(s0));
        sched.push(Stage::departure(s1));
        sched
    }

    #[test]
    fn push_and_accessors() {
        let sched = linear(4);
        assert_eq!(sched.n(), 4);
        assert_eq!(sched.len(), 2);
        assert_eq!(sched.total_signals(), 6);
        assert_eq!(sched.stages()[0].mode, SendMode::General);
        assert_eq!(sched.stages()[1].mode, SendMode::ReceiversAwaiting);
    }

    #[test]
    #[should_panic(expected = "signals itself")]
    fn self_signal_rejected() {
        let mut sched = BarrierSchedule::new(3);
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(3, [(1, 1)])));
    }

    #[test]
    #[should_panic(expected = "stage is 2x2 but the schedule covers 3 ranks")]
    fn stage_of_another_size_rejected() {
        let mut sched = BarrierSchedule::new(3);
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(2, [(1, 0)])));
    }

    #[test]
    fn departure_reversed_equals_reversed_dense_transposes() {
        let mut sched = BarrierSchedule::new(70);
        let arrival = [
            vec![(1, 0), (3, 2), (69, 64)],
            vec![(2, 0), (64, 0), (2, 65)],
            vec![(0, 2), (2, 0)], // "root dissemination"
        ];
        for edges in &arrival {
            sched.push(Stage::arrival(SparseBoolMatrix::from_edges(70, edges)));
        }
        for skip in 0..=3 {
            let dep = sched.departure_reversed(skip);
            let dense: Vec<_> = dep.stages().iter().map(|s| s.matrix.to_dense()).collect();
            let expect: Vec<_> = arrival[..3 - skip]
                .iter()
                .rev()
                .map(|edges| hbar_matrix::BoolMatrix::from_edges(70, edges).transpose())
                .collect();
            assert_eq!(dense, expect, "skip={skip}");
            assert!(dep
                .stages()
                .iter()
                .all(|s| s.mode == SendMode::ReceiversAwaiting));
        }
    }

    #[test]
    fn strip_noop_removes_empty_stages() {
        let mut sched = BarrierSchedule::new(3);
        sched.push(Stage::arrival(SparseBoolMatrix::zeros(3)));
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(3, [(1, 0)])));
        sched.push(Stage::arrival(SparseBoolMatrix::zeros(3)));
        assert_eq!(sched.strip_noop_stages(), 2);
        assert_eq!(sched.len(), 1);
    }

    #[test]
    fn append_moves_the_stages_over() {
        let mut a = linear(4);
        let extra = BarrierSchedule::from_arrival_matrices(
            4,
            vec![SparseBoolMatrix::from_edges(4, [(3, 1)])],
        );
        a.append(extra.clone());
        assert_eq!(a.len(), 3);
        assert_eq!(a.stages()[2], extra.stages()[0]);
    }

    #[test]
    fn linear_schedule_is_barrier() {
        assert!(linear(5).is_barrier());
        let mut arrival_only = BarrierSchedule::new(5);
        arrival_only.push(linear(5).stages()[0].clone());
        assert!(!arrival_only.is_barrier());
    }

    #[test]
    fn serde_round_trip_keeps_the_signals() {
        let sched = linear(4);
        let back = BarrierSchedule::from_value(&sched.to_value()).expect("round trip");
        assert_eq!(back, sched);
        assert!(back.is_barrier());
    }

    /// A schedule document around one stage image.
    fn document(n: u64, stage_n: usize, edges: &[(usize, usize)]) -> Value {
        let stage = Stage::arrival(SparseBoolMatrix::from_edges(stage_n, edges));
        Value::Object(vec![
            ("n".to_string(), Value::UInt(n)),
            ("stages".to_string(), vec![stage].to_value()),
        ])
    }

    #[test]
    fn reading_rejects_what_push_rejects() {
        assert!(BarrierSchedule::from_value(&document(3, 3, &[(1, 0)])).is_ok());
        assert_eq!(
            BarrierSchedule::from_value(&document(3, 2, &[(1, 0)])).unwrap_err(),
            "stage 0: stage is 2x2 but the schedule covers 3 ranks"
        );
        assert_eq!(
            BarrierSchedule::from_value(&document(3, 3, &[(1, 0), (2, 2)])).unwrap_err(),
            "stage 0: rank 2 signals itself"
        );
    }

    #[test]
    fn heap_bytes_is_four_bytes_a_signal_and_eight_a_sender() {
        let mut sched = BarrierSchedule::new(256);
        assert_eq!(sched.heap_bytes(), 0, "empty schedule holds no heap");
        // 255 senders with one signal each: 255 · (8 + 4) bytes, against
        // the 256 rows × 4 words × 8 bytes of the stage's dense image.
        sched.push(linear(256).stages()[0].clone());
        let stage_vec = sched.stages.capacity() * std::mem::size_of::<Stage>();
        assert_eq!(sched.heap_bytes(), stage_vec + 255 * 12);
        // Its transpose: one sender, 255 signals.
        sched.push(linear(256).stages()[1].clone());
        let stage_vec = sched.stages.capacity() * std::mem::size_of::<Stage>();
        let lists = 255 * 12 + 8 + 255 * 4;
        assert_eq!(sched.heap_bytes(), stage_vec + lists);
        // An empty stage adds nothing but its slot.
        sched.push(Stage::arrival(SparseBoolMatrix::zeros(256)));
        let stage_vec = sched.stages.capacity() * std::mem::size_of::<Stage>();
        assert_eq!(sched.heap_bytes(), stage_vec + lists);
    }

    #[test]
    fn display_mentions_modes() {
        let text = format!("{}", linear(3));
        assert!(text.contains("arrival"));
        assert!(text.contains("departure"));
        assert!(text.contains("0 1 1"), "the incidence matrix view: {text}");
    }
}
