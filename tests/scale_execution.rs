//! Barrier verification and execution at a size only a signal-driven
//! closure and a sparse engine reach.
//!
//! With one matching pool and one charge record per *ordered rank pair*
//! (128 bytes together, the engine's layout up to PR 13) a P = 16384 world
//! would need 34 GB before running anything. The engine now keeps state per
//! rank and per channel the programs name, so this test passing inside
//! `cargo test` is the proof that nothing in `hbar_simnet::engine` or
//! `::world` is sized by P². The Eq. 3 closure used to walk every set bit
//! of the P × P knowledge matrix per stage (some 10⁹ bit visits for the
//! last stages here); driven from the stage's signals it runs in the same
//! test.

use hbar_core::algorithms::Algorithm;
use hbar_core::schedule::BarrierSchedule;
use hbar_matrix::ClosureWorkspace;
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::NoiseModel;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;

/// Eq. 3 at this size: the schedule is a barrier, and stops being one
/// when any single signal of its first, middle or last stage is cleared.
/// The closure costs the signals' row operations plus one scan of each
/// stage matrix, so a debug build gets through all eight runs.
fn assert_barrier_and_no_spare_signal(schedule: &BarrierSchedule, ws: &mut ClosureWorkspace) {
    let p = schedule.n();
    let stages = schedule.matrices();
    assert!(ws.is_barrier(p, stages.iter().copied()));
    for at in [0, stages.len() / 2, stages.len() - 1] {
        // One modified copy alive at a time (32 MiB).
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

#[test]
fn tree_and_dissemination_execute_at_p16384() {
    let p = 16384;
    let machine = MachineSpec::new(2048, 2, 4);
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
        // One schedule at a time: its dense stage matrices (32 MiB each)
        // are this test's real memory cost.
        let schedule = alg.full_schedule(p, &members);
        let signals = schedule.total_signals();
        assert_barrier_and_no_spare_signal(&schedule, &mut ws);
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
