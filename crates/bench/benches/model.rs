//! Algorithmic-model kernel scaling: Eq. 3 knowledge closure at
//! P = 64 … 8192 and SSS clustering at P = 64/256/1024.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hbar_core::algorithms::Algorithm;
use hbar_core::clustering::{try_sss_clusters_with, SssScratch, SSS_DEFAULT_SPARSENESS};
use hbar_matrix::ClosureWorkspace;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::metric::DistanceMetric;
use hbar_topo::profile::TopologyProfile;
use std::hint::black_box;

const RANKS: [usize; 3] = [64, 256, 1024];
/// The closure also runs at the sizes where its old arrival-major form
/// cost more than profiling.
const CLOSURE_RANKS: [usize; 5] = [64, 256, 1024, 4096, 8192];

/// Closure shapes: sparse stages throughout (dissemination), the shape of
/// a tuned hybrid (tree arrival, transposed departure), one dense column
/// then one dense row (linear), and seven signals per rank per stage
/// (8-way dissemination) — the last two are where a stage carries many
/// signals and driving the product from the signals pays least.
const SHAPES: [(&str, Algorithm); 4] = [
    ("dissemination", Algorithm::Dissemination),
    ("tree_hybrid", Algorithm::Tree),
    ("linear", Algorithm::Linear),
    ("dissemination8", Algorithm::NWay(8)),
];

fn bench_closure_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("closure_scaling");
    group.sample_size(10);
    let mut ws = ClosureWorkspace::new();
    for p in CLOSURE_RANKS {
        let members: Vec<usize> = (0..p).collect();
        for (shape, algorithm) in SHAPES {
            // One schedule alive at a time: at P = 8192 a stage matrix is
            // 8 MiB and the tree has 26 of them.
            let schedule = algorithm.full_schedule(p, &members);
            let stages = schedule.matrices();
            let id = |kernel: &str| BenchmarkId::new(format!("{shape}/{kernel}"), p);
            group.bench_with_input(id("is_barrier"), &stages, |b, s| {
                b.iter(|| black_box(ws.is_barrier(p, black_box(s).iter().copied())))
            });
            group.bench_with_input(id("closure"), &stages, |b, s| {
                b.iter(|| {
                    black_box(ws.closure(p, black_box(s).iter().copied()));
                })
            });
        }
    }
    group.finish();
}

fn bench_cluster_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_scaling");
    group.sample_size(10);
    for p in RANKS {
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
        let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p);
        let metric = DistanceMetric::from_costs(&profile.cost);
        let members: Vec<usize> = (0..p).collect();
        let dia = metric.diameter();
        let mut scratch = SssScratch::default();
        group.bench_with_input(BenchmarkId::from_parameter(p), &metric, |b, m| {
            b.iter(|| {
                black_box(
                    try_sss_clusters_with(
                        black_box(m),
                        &members,
                        SSS_DEFAULT_SPARSENESS,
                        dia,
                        &mut scratch,
                    )
                    .expect("ground-truth metric is finite"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_closure_scaling, bench_cluster_scaling);
criterion_main!(benches);
