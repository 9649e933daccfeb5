//! Barrier verification via the Eq. 3 knowledge closure.
//!
//! "The signal pattern encoded in the sequence S₀, S₁, …, S_k represents a
//! barrier if and only if all elements of K_k are non-zero" (§V-A), where
//! `K_a = K_{a-1} + K_{a-1} · S_a` starting from the identity.

use crate::schedule::BarrierSchedule;
use hbar_matrix::{walk_knowledge, BoolMatrix, ClosureWorkspace};

/// True iff `schedule` synchronizes all of its processes.
pub fn is_barrier(schedule: &BarrierSchedule) -> bool {
    is_barrier_with(schedule, &mut ClosureWorkspace::new())
}

/// Allocation-free [`is_barrier`] against a caller-owned workspace, with
/// early exit once every row of the knowledge matrix saturates.
pub fn is_barrier_with(schedule: &BarrierSchedule, ws: &mut ClosureWorkspace) -> bool {
    ws.is_barrier(schedule.n(), schedule.stages().iter().map(|s| &s.matrix))
}

/// Walks the schedule's Eq. 3 knowledge once: `visit(a, known)` sees what
/// every rank knows before stage `a`, and the final state is returned.
/// Both are knower-major — row `j` holds the arrivals rank `j` knows —
/// and are evaluated apart from the kernel [`is_barrier`] runs (see
/// [`walk_knowledge`]).
pub fn walk(schedule: &BarrierSchedule, visit: impl FnMut(usize, &BoolMatrix)) -> BoolMatrix {
    walk_knowledge(
        schedule.n(),
        schedule.stages().iter().map(|s| &s.matrix),
        visit,
    )
}

/// A human-readable explanation of why a schedule fails to be a barrier:
/// for each rank pair `(i, j)` where `j` never learns of `i`'s arrival,
/// one entry. Empty when the schedule is a valid barrier.
pub fn missing_knowledge(schedule: &BarrierSchedule) -> Vec<(usize, usize)> {
    let (known, n) = (walk(schedule, |_, _| {}), schedule.n());
    (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|&(i, j)| !known.get(j, i))
        .collect()
}

/// Checks that a schedule is a barrier *for a subset* of ranks: all
/// members' arrivals must become known to all members (non-members may be
/// untouched). Used to validate local barriers over clusters before they
/// are composed into a full-system pattern.
pub fn synchronizes_subset(schedule: &BarrierSchedule, members: &[usize]) -> bool {
    synchronizes_subset_with(schedule, members, &mut ClosureWorkspace::new())
}

/// Allocation-free [`synchronizes_subset`] against a caller-owned
/// workspace.
pub fn synchronizes_subset_with(
    schedule: &BarrierSchedule,
    members: &[usize],
    ws: &mut ClosureWorkspace,
) -> bool {
    let last = ws.closure(schedule.n(), schedule.stages().iter().map(|s| &s.matrix));
    members
        .iter()
        .all(|&i| members.iter().all(|&j| last.get(i, j)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Stage;
    use hbar_matrix::SparseBoolMatrix;

    fn dissemination(n: usize) -> BarrierSchedule {
        let mut sched = BarrierSchedule::new(n);
        let mut step = 1;
        while step < n {
            let mut m = SparseBoolMatrix::zeros(n);
            for i in 0..n {
                m.set(i, (i + step) % n, true);
            }
            sched.push(Stage::arrival(m));
            step *= 2;
        }
        sched
    }

    #[test]
    fn dissemination_verifies_for_many_sizes() {
        for n in [2, 3, 4, 5, 7, 8, 9, 16, 22, 60, 64, 120] {
            assert!(is_barrier(&dissemination(n)), "n={n}");
        }
    }

    #[test]
    fn truncated_dissemination_fails_with_witnesses() {
        let mut sched = dissemination(8);
        // Remove the last stage: no longer a barrier.
        let stages: Vec<Stage> = sched.stages()[..2].to_vec();
        sched = BarrierSchedule::new(8);
        for s in stages {
            sched.push(s);
        }
        assert!(!is_barrier(&sched));
        let missing = missing_knowledge(&sched);
        assert!(!missing.is_empty());
        // After offsets 1,2 each rank knows the previous 3 ranks' arrivals;
        // rank 0's arrival cannot have reached rank 4 (distance 4 forward).
        assert!(missing.contains(&(0, 4)));
    }

    #[test]
    fn subset_synchronization() {
        // A local linear barrier over ranks {2, 5, 7} of a 9-rank system.
        let n = 9;
        let members = [2, 5, 7];
        let mut s0 = SparseBoolMatrix::zeros(n);
        s0.set(5, 2, true);
        s0.set(7, 2, true);
        let s1 = s0.transpose();
        let mut sched = BarrierSchedule::new(n);
        sched.push(Stage::arrival(s0));
        sched.push(Stage::departure(s1));
        assert!(synchronizes_subset(&sched, &members));
        assert!(!is_barrier(&sched), "non-members are not synchronized");
        assert!(!synchronizes_subset(&sched, &[2, 5, 7, 8]));
    }

    #[test]
    fn empty_schedule_is_barrier_only_for_single_rank() {
        assert!(is_barrier(&BarrierSchedule::new(1)));
        assert!(!is_barrier(&BarrierSchedule::new(2)));
    }

    #[test]
    fn workspace_variants_match_plain_ones() {
        let mut ws = ClosureWorkspace::new();
        for n in [2, 8, 60, 120] {
            let full = dissemination(n);
            let mut truncated = BarrierSchedule::new(n);
            for s in &full.stages()[..full.len() - 1] {
                truncated.push(s.clone());
            }
            for sched in [&full, &truncated] {
                assert_eq!(is_barrier_with(sched, &mut ws), is_barrier(sched));
                let members: Vec<usize> = (0..n).step_by(3).collect();
                assert_eq!(
                    synchronizes_subset_with(sched, &members, &mut ws),
                    synchronizes_subset(sched, &members)
                );
            }
        }
    }
}
