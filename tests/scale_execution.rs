//! Barrier verification and execution at sizes only a schedule of signal
//! lists, a signal-driven closure and a sparse engine reach.
//!
//! With one matching pool and one charge record per *ordered rank pair*
//! (128 bytes together, the engine's layout up to PR 13) a P = 16384 world
//! would need 34 GB before running anything, and with one `P × P` bitset
//! per stage (the schedule's layout up to PR 19) the tree's 28 stages
//! spanned 896 MiB for 32 766 signals. The engine keeps state per rank and
//! per channel the programs name, a stage keeps its signals, and the Eq. 3
//! closure iterates them, so what is left at P = 32768 is the closure's two
//! 128 MiB knowledge arenas. These tests passing inside `cargo test` is the
//! proof that nothing else on the way from an algorithm to an executed
//! barrier is sized by P².

use hbar_core::algorithms::Algorithm;
use hbar_core::schedule::{BarrierSchedule, Stage};
use hbar_matrix::{ClosureWorkspace, SparseBoolMatrix};
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::NoiseModel;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;

/// Eq. 3 at this size: the schedule is a barrier, and stops being one
/// when the first signal of any of the stages `without` is cleared.
fn assert_barrier_and_no_spare_signal(
    schedule: &BarrierSchedule,
    without: &[usize],
    ws: &mut ClosureWorkspace,
) {
    let p = schedule.n();
    let stages: Vec<&SparseBoolMatrix> = schedule.stages().iter().map(|s| &s.matrix).collect();
    assert!(ws.is_barrier(p, stages.iter().copied()));
    for &at in without {
        let mut cleared = stages[at].clone();
        let (src, dst) = cleared.edges().next().expect("no stage is empty");
        cleared.set(src, dst, false);
        let with_gap =
            (stages.iter().enumerate()).map(|(i, &m)| if i == at { &cleared } else { m });
        assert!(
            !ws.is_barrier(p, with_gap),
            "still a barrier without {src} -> {dst} of stage {at}"
        );
    }
}

/// Builds, verifies and executes the tree and the dissemination barrier
/// over `p` ranks of dual quad-core nodes. `refute_at` picks, from the
/// stage count, the stages to clear a signal of.
fn tree_and_dissemination_execute(p: usize, refute_at: fn(usize) -> Vec<usize>) {
    let machine = MachineSpec::new(p / 8, 2, 4);
    assert_eq!(machine.total_cores(), p);
    let mut world = SimWorld::new(
        SimConfig {
            machine,
            mapping: RankMapping::Block,
            noise: NoiseModel::realistic(1),
        },
        p,
    );
    let members: Vec<usize> = (0..p).collect();
    let mut ws = ClosureWorkspace::new();
    for alg in [Algorithm::Tree, Algorithm::Dissemination] {
        let schedule = alg.full_schedule(p, &members);
        let (signals, stages) = (schedule.total_signals(), schedule.len());
        // Four bytes a signal and eight a sending rank per stage (at most
        // twelve a signal), plus the stage vector, which growing by
        // doubling may leave up to twice as long as it is full. The dense
        // stages of this schedule were `stages · p² / 8` bytes.
        let bound = 12 * signals + 2 * stages * std::mem::size_of::<Stage>();
        assert!(
            schedule.heap_bytes() <= bound,
            "{alg}: {} bytes for {signals} signals in {stages} stages",
            schedule.heap_bytes()
        );
        assert_barrier_and_no_spare_signal(&schedule, &refute_at(stages), &mut ws);
        let programs = schedule_programs(&schedule, 1);
        drop(schedule);
        let result = world
            .run(&programs)
            .unwrap_or_else(|e| panic!("{alg} deadlocked at P = {p}: {e}"));
        // Every rank starts once; every signal is an arrival, a receive
        // completion and a send completion.
        assert_eq!(result.events, (p + 3 * signals) as u64, "{alg}");
        assert!(result.makespan() > 0);
    }
}

#[test]
fn tree_and_dissemination_execute_at_p16384() {
    tree_and_dissemination_execute(16384, |stages| vec![0, stages / 2, stages - 1]);
}

/// Twice the largest size any other test reaches (the engine's own limit
/// is 2³⁰ ranks since PR 14).
#[test]
fn tree_and_dissemination_execute_at_p32768() {
    tree_and_dissemination_execute(32768, |stages| vec![stages / 2]);
}
