//! Tuned hybrid barriers executed on real threads.

use hbar_core::algorithms::Algorithm;
use hbar_core::codegen::compile_schedule;
use hbar_core::compose::{tune_hybrid_costs, TunedBarrier, TunerConfig};
use hbar_threadrun::executor::ThreadExecutor;
use hbar_threadrun::harness;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use std::time::Duration;

/// Tunes over every rank of a `p`-rank block-placed single node.
fn tuned_with(p: usize, cfg: &TunerConfig) -> TunedBarrier {
    let machine = MachineSpec::new(1, 2, p.div_ceil(2));
    let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::Block, p);
    let members: Vec<usize> = (0..p).collect();
    tune_hybrid_costs(&profile.cost, &members, cfg)
}

fn tuned_for(p: usize) -> TunedBarrier {
    tuned_with(p, &TunerConfig::default())
}

#[test]
fn tuned_hybrid_executes_and_synchronizes_on_threads() {
    for p in [2usize, 4, 6] {
        let tuned = tuned_for(p);
        let (ok, runs) = harness::staggered_delay_check(&tuned.schedule, Duration::from_millis(12));
        assert!(ok, "p={p}: {runs:?}");
    }
}

#[test]
fn tuned_hybrid_timing_is_sane() {
    let tuned = tuned_for(4);
    let mut ex = ThreadExecutor::new(compile_schedule(&tuned.schedule).unwrap());
    let t = ex.time_barrier(100);
    assert!(t > Duration::ZERO);
    assert!(t < Duration::from_millis(20), "per-barrier {t:?}");
}

/// The extension algorithms the default tuner does not consider, forced.
#[test]
fn extension_algorithm_schedules_also_run_on_threads() {
    for alg in [Algorithm::KAry(4), Algorithm::Butterfly] {
        let tuned = tuned_with(4, &TunerConfig::forced(alg));
        let (ok, runs) = harness::staggered_delay_check(&tuned.schedule, Duration::from_millis(10));
        assert!(ok, "{alg}: {runs:?}");
    }
}
