//! Cost-model evaluation throughput: predicting one barrier's execution
//! time from a profile (the inner loop of the tuner's greedy search).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hbar_core::algorithms::Algorithm;
use hbar_core::cost::{CostEvaluator, CostParams};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use std::hint::black_box;

/// The steady-state cost of one prediction once the evaluator's scratch
/// arenas are warm.
fn bench_predict_evaluator(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict_evaluator");
    group.sample_size(20);
    for (label, machine, p) in [
        ("clusterA-64", MachineSpec::dual_quad_cluster(8), 64usize),
        ("clusterB-120", MachineSpec::dual_hex_cluster(10), 120),
    ] {
        let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p);
        let members: Vec<usize> = (0..p).collect();
        let mut eval = CostEvaluator::new(CostParams::default());
        for alg in Algorithm::PAPER_SET {
            let sched = alg.full_schedule(p, &members);
            group.bench_with_input(BenchmarkId::new(label, alg.tag()), &sched, |b, sched| {
                b.iter(|| black_box(eval.barrier_cost(black_box(sched), &profile.cost, None)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_predict_evaluator);
criterion_main!(benches);
