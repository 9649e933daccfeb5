//! Full adaptive-tuning latency from a stored profile.
//!
//! §VIII of the paper: "With a topological model ready, the generation
//! and evaluation of adapted patterns requires on the order of 0.1
//! seconds" — the figure that makes periodic re-tuning plausible. This
//! bench reports our equivalent number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hbar_core::compose::{tune_hybrid_costs, tune_hybrid_costs_with, TunerConfig};
use hbar_core::cost::CostEvaluator;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use std::hint::black_box;

fn bench_tune(c: &mut Criterion) {
    let mut group = c.benchmark_group("tune");
    group.sample_size(10);
    for (label, machine, p) in [
        ("clusterA-22", MachineSpec::dual_quad_cluster(3), 22usize),
        ("clusterA-64", MachineSpec::dual_quad_cluster(8), 64),
        ("clusterB-120", MachineSpec::dual_hex_cluster(10), 120),
    ] {
        let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p);
        let members: Vec<usize> = (0..p).collect();
        for (cfg_label, cfg) in [
            ("paper-set", TunerConfig::default()),
            ("extended", TunerConfig::extended()),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, cfg_label),
                &profile,
                |b, profile| {
                    b.iter(|| {
                        black_box(tune_hybrid_costs(black_box(&profile.cost), &members, &cfg))
                    })
                },
            );
        }
    }
    group.finish();
}

/// Rank scaling of the tuner out to P = 1024 (the blocked-kernel target
/// scale).
fn bench_tune_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("tune_scaling");
    group.sample_size(10);
    for p in [16usize, 32, 64, 128, 256, 1024] {
        // Dual quad-core nodes like cluster A, but without its 8-node
        // cap so the sweep can reach 128 ranks.
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
        let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p);
        let members: Vec<usize> = (0..p).collect();
        let cfg = TunerConfig::default();
        // A long-lived evaluator, as the adaptive re-tuning loop holds
        // one: scratch arenas and the score memo stay warm across calls.
        let mut eval = CostEvaluator::new(cfg.cost_params);
        group.bench_with_input(BenchmarkId::from_parameter(p), &profile, |b, profile| {
            b.iter(|| {
                black_box(tune_hybrid_costs_with(
                    black_box(&profile.cost),
                    &members,
                    &cfg,
                    &mut eval,
                ))
            })
        });
    }
    group.finish();
}

fn bench_exhaustive(c: &mut Criterion) {
    use hbar_core::compose::{search_optimal_barrier, SearchConfig};
    let mut group = c.benchmark_group("exhaustive_search");
    group.sample_size(10);
    // p = 4 is the largest size where the complete search is interactive.
    let machine = MachineSpec::new(2, 1, 2);
    let profile = TopologyProfile::from_ground_truth(&machine, &RankMapping::Block);
    let members: Vec<usize> = (0..profile.p).collect();
    let greedy = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    group.bench_function("p4-seeded", |b| {
        b.iter(|| {
            black_box(search_optimal_barrier(
                &profile.cost,
                &SearchConfig {
                    max_stages: 5,
                    ..SearchConfig::default()
                },
                Some(&greedy.schedule),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tune, bench_tune_scaling, bench_exhaustive);
criterion_main!(benches);
