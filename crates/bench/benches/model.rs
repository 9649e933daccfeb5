//! Algorithmic-model kernel scaling: Eq. 3 knowledge closure and SSS
//! clustering at P = 64/256/1024.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hbar_core::clustering::{try_sss_clusters_with, SssScratch, SSS_DEFAULT_SPARSENESS};
use hbar_matrix::{BoolMatrix, ClosureWorkspace};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::metric::DistanceMetric;
use hbar_topo::profile::TopologyProfile;
use std::hint::black_box;

const RANKS: [usize; 3] = [64, 256, 1024];

/// ⌈log₂ n⌉ dissemination stages; saturation only at the final stage.
fn dissemination(n: usize) -> Vec<BoolMatrix> {
    let mut stages = Vec::new();
    let mut step = 1;
    while step < n {
        let mut s = BoolMatrix::zeros(n);
        for i in 0..n {
            s.set(i, (i + step) % n, true);
        }
        stages.push(s);
        step *= 2;
    }
    stages
}

fn bench_closure_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("closure_scaling");
    group.sample_size(10);
    for p in RANKS {
        let stages = dissemination(p);
        let mut ws = ClosureWorkspace::new();
        group.bench_with_input(BenchmarkId::from_parameter(p), &stages, |b, s| {
            b.iter(|| {
                black_box(ws.closure(p, black_box(s)));
            })
        });
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
