//! Real-thread barrier execution on the host machine: generated
//! schedules vs classical shared-memory baselines.
//!
//! Thread counts are kept small: the benchmark box may have very few
//! cores, and oversubscribed spin barriers measure scheduler behaviour
//! rather than barrier structure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hbar_core::algorithms::Algorithm;
use hbar_core::codegen::compile_schedule;
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_threadrun::baselines::{time_thread_barrier, CentralCounterBarrier, StdSyncBarrier};
use hbar_threadrun::executor::ThreadExecutor;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use std::hint::black_box;

const ITERS_PER_SAMPLE: usize = 20;

fn bench_thread_barriers(c: &mut Criterion) {
    let p = std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 4))
        .unwrap_or(2);
    let mut group = c.benchmark_group(format!("thread_barriers/p{p}"));
    group.sample_size(10);
    let members: Vec<usize> = (0..p).collect();

    for alg in Algorithm::PAPER_SET {
        let sched = alg.full_schedule(p, &members);
        group.bench_with_input(
            BenchmarkId::new("schedule", alg.tag()),
            &sched,
            |b, sched| {
                let mut ex = ThreadExecutor::new(compile_schedule(sched).unwrap());
                b.iter(|| black_box(ex.time_barrier(ITERS_PER_SAMPLE)));
            },
        );
    }

    // A tuned hybrid for a small machine whose shape matches p.
    let machine = MachineSpec::new(1, 1, p);
    let profile = TopologyProfile::from_ground_truth(&machine, &RankMapping::Block);
    let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    group.bench_function("schedule/hybrid", |b| {
        let mut ex = ThreadExecutor::new(compile_schedule(&tuned.schedule).unwrap());
        b.iter(|| black_box(ex.time_barrier(ITERS_PER_SAMPLE)));
    });

    group.bench_function("baseline/central-counter", |b| {
        let barrier = CentralCounterBarrier::new(p);
        b.iter(|| black_box(time_thread_barrier(&barrier, p, ITERS_PER_SAMPLE)));
    });
    group.bench_function("baseline/std-sync", |b| {
        let barrier = StdSyncBarrier::new(p);
        b.iter(|| black_box(time_thread_barrier(&barrier, p, ITERS_PER_SAMPLE)));
    });
    group.finish();
}

criterion_group!(benches, bench_thread_barriers);
criterion_main!(benches);
