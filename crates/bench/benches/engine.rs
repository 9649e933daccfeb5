//! Reworked simulation-engine microbenchmarks: raw event throughput on a
//! reused world, P-rank barrier execution at the benchmark's scale, one
//! pair descriptor per link class (the unit a sweep's measuring time is
//! made of), the exhaustive §IV-A profile (`SweepConfig::exact` through
//! the one sweep, executed locally), the clustered sweep's bookkeeping around its
//! measurements, and what a single cost lookup costs in each storage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hbar_core::algorithms::Algorithm;
use hbar_core::clustering::{classify_pairs, ClassingConfig};
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::profiling::{pair_sub_seed, ProfilingConfig};
use hbar_simnet::sweep::{
    execute_descriptor, DescriptorExecutor, PairSample, PairWorkDescriptor, SweepError, WorkKind,
};
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::{
    measure_profile_compressed, measure_profile_decomposed, LocalExecutor, NoiseModel, SpillConfig,
    SweepConfig,
};
use hbar_topo::cost::CostProvider;
use hbar_topo::features::TopologyExtractor;
use hbar_topo::machine::{LinkClass, MachineSpec};
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use hbar_topo::CompressedCostModel;
use std::hint::black_box;

/// Steady-state interpreter throughput: a many-round dissemination barrier
/// re-run on one world, so arenas, matching pools and the event queue are
/// all reused between iterations.
fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    for p in [16usize, 64] {
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
        let members: Vec<usize> = (0..p).collect();
        let sched = Algorithm::Dissemination.full_schedule(p, &members);
        let programs = schedule_programs(&sched, 50);
        let mut world = SimWorld::new(
            SimConfig {
                machine,
                mapping: RankMapping::RoundRobin,
                noise: NoiseModel::realistic(42),
            },
            p,
        );
        group.bench_with_input(
            BenchmarkId::new("dissemination-50r", p),
            &programs,
            |b, programs| b.iter(|| black_box(world.run(black_box(programs)).expect("runs"))),
        );
    }
    group.finish();
}

/// What an episode of the pipeline benchmark pays to execute its barriers:
/// building the world, and one 20-repetition run of each schedule on it
/// (channel resolution in `bind` included). The P = 8192 row is the size
/// the event queue is deepest at among those the benchmark reaches.
fn bench_barrier_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_execution");
    group.sample_size(10);
    let mapping = RankMapping::Block;
    for p in [1024usize, 4096] {
        let machine = MachineSpec::new(p / 8, 2, 4);
        let config = SimConfig {
            machine: machine.clone(),
            mapping: mapping.clone(),
            noise: NoiseModel::realistic(42),
        };
        group.bench_function(BenchmarkId::new("world_build", p), |b| {
            b.iter(|| black_box(SimWorld::new(config.clone(), p)))
        });
        let members: Vec<usize> = (0..p).collect();
        let profile = TopologyProfile::from_ground_truth_for(&machine, &mapping, p);
        let mut world = SimWorld::new(config.clone(), p);
        for (name, sched) in [
            ("tree-20r", Algorithm::Tree.full_schedule(p, &members)),
            (
                "dissemination-20r",
                Algorithm::Dissemination.full_schedule(p, &members),
            ),
            (
                "hybrid-20r",
                tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default()).schedule,
            ),
        ] {
            let programs = schedule_programs(&sched, 20);
            group.bench_with_input(BenchmarkId::new(name, p), &programs, |b, programs| {
                b.iter(|| black_box(world.run(black_box(programs)).expect("runs")))
            });
        }
    }
    let p = 8192usize;
    let members: Vec<usize> = (0..p).collect();
    let programs = schedule_programs(&Algorithm::Dissemination.full_schedule(p, &members), 4);
    let mut world = SimWorld::new(
        SimConfig {
            machine: MachineSpec::new(p / 8, 2, 4),
            mapping,
            noise: NoiseModel::realistic(42),
        },
        p,
    );
    group.bench_with_input(
        BenchmarkId::new("dissemination-4r", p),
        &programs,
        |b, programs| b.iter(|| black_box(world.run(black_box(programs)).expect("runs"))),
    );
    group.finish();
}

/// One pair descriptor on the default schedule — 1 325 two-rank runs at
/// `rep_scale` 1 — per link class, at the base repetition count and at the
/// 4× a grown class asks for. `simnet.sweep.measure_s` is a sum of these.
fn bench_pair_descriptor(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_descriptor");
    group.sample_size(10);
    let machine = MachineSpec::new(2, 2, 4);
    let cfg = ProfilingConfig::default();
    let noise = NoiseModel::realistic(42);
    for (name, class, core_b) in [
        ("same_socket", LinkClass::SameSocket, 1u32),
        ("cross_socket", LinkClass::CrossSocket, 4),
        ("inter_node", LinkClass::InterNode, 8),
    ] {
        assert_eq!(
            machine.core(0).link_class(&machine.core(core_b as usize)),
            class
        );
        for rep_scale in [1u32, 4] {
            let d = PairWorkDescriptor {
                id: 0,
                kind: WorkKind::Pair,
                i: 0,
                j: 1,
                core_a: 0,
                core_b,
                sub_seed: pair_sub_seed(0, 1, noise.seed),
                rep_scale,
            };
            group.bench_with_input(BenchmarkId::new(name, rep_scale), &d, |b, d| {
                b.iter(|| black_box(execute_descriptor(&machine, noise, &cfg, black_box(d))))
            });
        }
    }
    group.finish();
}

/// The exhaustive §IV-A profile on the reduced schedule — every pair
/// measured, through the same sweep and local executor the pipeline
/// benchmark runs — at criterion-friendly size.
fn bench_profile_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_sweep");
    group.sample_size(10);
    let exact = SweepConfig::exact(ProfilingConfig::fast());
    let noise = NoiseModel::realistic(42);
    let mapping = RankMapping::RoundRobin;
    for p in [8usize, 16] {
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
        group.bench_with_input(BenchmarkId::new("fast", p), &machine, |b, machine| {
            b.iter(|| {
                let mut local = LocalExecutor::new(machine.clone(), noise, exact.profiling.clone());
                black_box(
                    measure_profile_decomposed(
                        black_box(machine),
                        &mapping,
                        p,
                        noise,
                        &exact,
                        &mut local,
                    )
                    .expect("local execution is infallible"),
                )
            })
        });
    }
    group.finish();
}

/// Answers every descriptor at once, so that what is left of a sweep is
/// the driver's own work.
struct InstantExecutor;

impl DescriptorExecutor for InstantExecutor {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        Ok(descriptors
            .iter()
            .map(|d| PairSample {
                id: d.id,
                o: 1e-6,
                l: 1e-7,
            })
            .collect())
    }
}

/// What the clustered sweep does besides measuring: classing alone, and
/// classing plus the tiled class-table scatter under the pipeline
/// benchmark's budget (`2p²/8` bytes), of which the classing's own table
/// leaves nothing, so that every tile is spilled.
fn bench_profile_bookkeeping(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_bookkeeping");
    group.sample_size(10);
    let mapping = RankMapping::Block;
    for p in [1024usize, 4096, 8192] {
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
        let cores = mapping.place(&machine, p);
        group.bench_with_input(BenchmarkId::new("classify", p), &machine, |b, machine| {
            b.iter(|| {
                black_box(classify_pairs(
                    black_box(machine),
                    &cores,
                    p,
                    &TopologyExtractor::default(),
                    &ClassingConfig::default(),
                ))
            })
        });
        let spill = SpillConfig::budgeted(
            std::env::temp_dir().join(format!("hbar_bench_spill_{}_{p}", std::process::id())),
            2 * p * p / 8,
        );
        group.bench_with_input(
            BenchmarkId::new("compressed_sweep", p),
            &machine,
            |b, machine| {
                b.iter(|| {
                    black_box(measure_profile_compressed(
                        black_box(machine),
                        &mapping,
                        p,
                        NoiseModel::none(),
                        &SweepConfig::default(),
                        &spill,
                        &mut InstantExecutor,
                    ))
                })
            },
        );
        let _ = std::fs::remove_dir(&spill.dir);
    }
    group.finish();
}

/// One million `o_at` lookups at pseudo-random cells, per storage: the
/// dense matrix (one load), the class grid as a model with every rank its
/// own kind, and the kind-space model a sweep builds. Both models pay the
/// same loads (`kind_of` twice, table cell, override flag, value table);
/// what differs is whether the table fits a cache.
fn bench_cost_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_lookup");
    group.sample_size(10);
    let mapping = RankMapping::Block;
    for p in [1024usize, 4096] {
        let machine = MachineSpec::new(p / 8, 2, 4);
        let dense = TopologyProfile::from_ground_truth_for(&machine, &mapping, p).cost;
        let identity_kinds = CompressedCostModel::from_dense(&dense).expect("a few classes");
        let (kind_space, _, _) = measure_profile_compressed(
            &machine,
            &mapping,
            p,
            NoiseModel::none(),
            &SweepConfig::default(),
            &SpillConfig::in_memory(std::env::temp_dir().join("hbar_bench_lookup_unused")),
            &mut InstantExecutor,
        )
        .expect("an in-memory scatter");
        assert_eq!(identity_kinds.class_map().kinds(), p);
        assert_eq!(kind_space.class_map().kinds(), p / 4);
        let storages: [(&str, &dyn CostProvider); 3] = [
            ("dense", &dense),
            ("identity_kinds", &identity_kinds),
            ("kind_space", &kind_space),
        ];
        for (name, cost) in storages {
            group.bench_function(BenchmarkId::new(name, p), |b| {
                b.iter(|| {
                    let (mut x, mut sum) = (0x9E37_79B9_7F4A_7C15u64, 0.0);
                    for _ in 0..1_000_000 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        sum += cost.o_at((x >> 40) as usize % p, (x >> 20) as usize % p);
                    }
                    black_box(sum)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_throughput,
    bench_barrier_execution,
    bench_pair_descriptor,
    bench_profile_sweep,
    bench_profile_bookkeeping,
    bench_cost_lookup
);
criterion_main!(benches);
