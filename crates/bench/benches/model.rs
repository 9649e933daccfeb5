//! Algorithmic-model kernel scaling: Eq. 3 knowledge closure at
//! P = 64 … 8192, the clustering a changed-cost step pays for (metric
//! view plus cluster tree) at P = 1024, and what a tuned schedule goes
//! through between the composer and the wire at P = 1024/8192.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hbar_core::algorithms::Algorithm;
use hbar_core::clustering::build_cluster_tree;
use hbar_core::codegen::compile_schedule;
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_core::cost::CostEvaluator;
use hbar_core::schedule::BarrierSchedule;
use hbar_matrix::{ClosureWorkspace, SparseBoolMatrix};
use hbar_simnet::{
    measure_profile_compressed, LocalExecutor, NoiseModel, SpillConfig, SweepConfig,
};
use hbar_topo::cost::CostProvider;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use std::hint::black_box;

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
            let schedule = algorithm.full_schedule(p, &members);
            let stages = || black_box(&schedule).stages().iter().map(|s| &s.matrix);
            let id = |kernel: &str| BenchmarkId::new(format!("{shape}/{kernel}"), p);
            group.bench_function(id("is_barrier"), |b| {
                b.iter(|| black_box(ws.is_barrier(p, stages())))
            });
            group.bench_function(id("closure"), |b| {
                b.iter(|| {
                    black_box(ws.closure(p, stages()));
                })
            });
        }
    }
    group.finish();
}

/// What a changed-cost step pays for clustering: the metric view and the
/// whole cluster tree under it, both placements.
fn bench_cluster_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_scaling");
    group.sample_size(10);
    let p = 1024;
    let machine = MachineSpec::new(p / 8, 2, 4);
    let members: Vec<usize> = (0..p).collect();
    let tuner = TunerConfig::default();
    for (placement, mapping) in [
        ("block", RankMapping::Block),
        ("round_robin", RankMapping::RoundRobin),
    ] {
        let cost = TopologyProfile::from_ground_truth_for(&machine, &mapping, p).cost;
        group.bench_function(BenchmarkId::new(placement, p), |b| {
            b.iter(|| {
                let metric = black_box(&cost).distance_metric();
                black_box(build_cluster_tree(
                    &metric,
                    &members,
                    tuner.sparseness,
                    tuner.max_depth,
                ))
            })
        });
    }
    group.finish();
}

/// The operations on a schedule that used to walk `P²` stage bits, on the
/// tuned hybrid of dual quad-core nodes (three signals a rank).
fn bench_schedule_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_ops");
    group.sample_size(10);
    for p in [1024usize, 8192] {
        let machine = MachineSpec::new(p / 8, 2, 4);
        let sweep = SweepConfig::default();
        let noise = NoiseModel::none();
        let mut executor = LocalExecutor::new(machine.clone(), noise, sweep.profiling.clone());
        let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_bench_model_unused"));
        let (model, ..) = measure_profile_compressed(
            &machine,
            &RankMapping::Block,
            p,
            noise,
            &sweep,
            &spill,
            &mut executor,
        )
        .expect("an in-memory scatter");
        let members: Vec<usize> = (0..p).collect();
        let cfg = TunerConfig::default();
        let tuned = tune_hybrid_costs(&model, &members, &cfg);
        let schedule = &tuned.schedule;

        // The composer's emission: every level's local stages mapped onto
        // its participants, each stage's pairs canonicalised once (here
        // with all levels aligned at stage 0).
        group.bench_function(BenchmarkId::new("emit", p), |b| {
            b.iter(|| {
                let mut stages: Vec<Vec<(u32, u32)>> = Vec::new();
                for level in black_box(&tuned.choices) {
                    let local = level.algorithm.arrival_local(level.participants.len());
                    stages.resize(stages.len().max(local.len()), Vec::new());
                    for (pairs, stage) in stages.iter_mut().zip(&local) {
                        stage.embed_into(&level.participants, pairs);
                    }
                }
                let stages = stages.into_iter();
                black_box(
                    stages
                        .map(|pairs| SparseBoolMatrix::from_pairs(p, pairs))
                        .collect::<Vec<_>>(),
                )
            })
        });
        group.bench_function(BenchmarkId::new("departure_reversed", p), |b| {
            b.iter(|| black_box(black_box(schedule).departure_reversed(0)))
        });
        let mut eval = CostEvaluator::new(cfg.cost_params);
        group.bench_function(BenchmarkId::new("barrier_cost", p), |b| {
            b.iter(|| black_box(eval.barrier_cost(black_box(schedule), &model, None)))
        });
        group.bench_function(BenchmarkId::new("compile_schedule", p), |b| {
            b.iter(|| black_box(compile_schedule(black_box(schedule))))
        });
        // The JSON is the dense image: 2.9 MB at P = 1024, 190 MB (and a
        // value tree several times that) at P = 8192, which is left out.
        if p == 1024 {
            group.bench_function(BenchmarkId::new("json_write_read", p), |b| {
                b.iter(|| {
                    let text = serde_json::to_string(black_box(schedule)).expect("serializes");
                    black_box(serde_json::from_str::<BarrierSchedule>(&text).expect("reads back"))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_closure_scaling,
    bench_cluster_scaling,
    bench_schedule_ops
);
criterion_main!(benches);
