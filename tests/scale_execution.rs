//! Barrier execution at a size only a sparse engine reaches.
//!
//! With one matching pool and one charge record per *ordered rank pair*
//! (128 bytes together, the engine's layout up to PR 13) a P = 16384 world
//! would need 34 GB before running anything. The engine now keeps state per
//! rank and per channel the programs name, so this test passing inside
//! `cargo test` is the proof that nothing in `hbar_simnet::engine` or
//! `::world` is sized by P².

use hbar_core::algorithms::Algorithm;
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::NoiseModel;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;

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
    for alg in [Algorithm::Tree, Algorithm::Dissemination] {
        // One schedule at a time: its dense stage matrices (32 MiB each)
        // are this test's real memory cost.
        let schedule = alg.full_schedule(p, &members);
        let signals = schedule.total_signals();
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
