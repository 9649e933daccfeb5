//! The receive-paced execution — each step waits for its receives, each
//! rank for its synchronous sends once at exit — against the per-step
//! `WaitAll` form the paper's generator emits, on the ground-truth grid
//! EXPERIMENTS.md Appendix B tunes: the tuned hybrid never runs slower,
//! and both forms process the same events.

mod common;

use common::per_step_wait_all_programs;
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;

/// Runs the tuned hybrid of one cell, zero noise, both placements, under
/// both forms; the receive-paced one must not be slower.
fn hybrid_not_slower(machine: &MachineSpec, p: usize) {
    let members: Vec<usize> = (0..p).collect();
    for mapping in [RankMapping::Block, RankMapping::RoundRobin] {
        let profile = TopologyProfile::from_ground_truth_for(machine, &mapping, p);
        let hybrid = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default()).schedule;
        let mut world = SimWorld::new(SimConfig::exact(machine.clone(), mapping.clone()), p);
        let per_step = world
            .run(&per_step_wait_all_programs(&hybrid, 1))
            .expect("barrier completes");
        let paced = world
            .run(&schedule_programs(&hybrid, 1))
            .expect("barrier completes");
        let (before, after) = (per_step.makespan(), paced.makespan());
        eprintln!("{} P={p} {mapping:?}: {before} -> {after} ns", machine.name);
        assert!(
            after <= before,
            "{} P={p} ({mapping:?}): receive-paced {after} ns > per-step WaitAll {before} ns",
            machine.name
        );
        assert_eq!(
            paced.events, per_step.events,
            "the same messages, the same events"
        );
    }
}

#[test]
fn tuned_hybrid_is_not_slower_on_the_appendix_b_grid() {
    for p in [16usize, 32, 48, 64, 96, 120, 128, 256] {
        for cores in [4, 6] {
            let nodes = p.div_ceil(2 * cores);
            hybrid_not_slower(&MachineSpec::new(nodes, 2, cores), p);
        }
    }
}

#[test]
fn tuned_hybrid_is_not_slower_at_p1024() {
    hybrid_not_slower(&MachineSpec::new(128, 2, 4), 1024);
}
