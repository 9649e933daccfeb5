//! Execute a generated barrier on real OS threads and validate it with
//! the paper's staggered-delay check (§VI), then race it against
//! classical shared-memory barriers.
//!
//! ```text
//! cargo run --release --example thread_barrier
//! ```

use hbarrier::core::algorithms::Algorithm;
use hbarrier::core::codegen::compile_schedule;
use hbarrier::prelude::*;
use hbarrier::threadrun::baselines::{
    time_thread_barrier, CentralCounterBarrier, StdSyncBarrier, ThreadBarrier,
};
use hbarrier::threadrun::executor::ThreadExecutor;
use hbarrier::threadrun::harness;
use std::time::Duration;

fn main() {
    // Stay modest: oversubscribed spin barriers measure the OS scheduler,
    // not the barrier.
    let p = std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(2);
    println!("running on {p} threads");

    // Tune a hybrid for a machine shaped like this host (one node, one
    // socket level — the tuner degenerates gracefully).
    let machine = MachineSpec::new(1, 1, p);
    let profile = TopologyProfile::from_ground_truth(&machine, &RankMapping::Block);
    let members: Vec<usize> = (0..p).collect();
    let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    println!(
        "tuned schedule: {} stages, root algorithm {:?}",
        tuned.schedule.len(),
        tuned.root_algorithm()
    );

    // §VI staggered-delay validation on real threads.
    let delay = Duration::from_millis(20);
    let (ok, _) = harness::staggered_delay_check(&tuned.schedule, delay);
    println!(
        "staggered-delay check ({delay:?} per rank): {}",
        if ok { "PASSED" } else { "FAILED" }
    );
    assert!(ok);

    // Time the generated schedules against the baselines.
    let iters = 200;
    println!("\nmean per-barrier time over {iters} iterations:");
    for alg in Algorithm::PAPER_SET {
        let sched = alg.full_schedule(p, &members);
        let mut ex = ThreadExecutor::new(compile_schedule(&sched).expect("schedule compiles"));
        println!("  {:>18}: {:?}", alg.to_string(), ex.time_barrier(iters));
    }
    let mut ex = ThreadExecutor::new(compile_schedule(&tuned.schedule).expect("schedule compiles"));
    println!("  {:>18}: {:?}", "tuned hybrid", ex.time_barrier(iters));

    let central = CentralCounterBarrier::new(p);
    println!(
        "  {:>18}: {:?}",
        central.name(),
        time_thread_barrier(&central, p, iters)
    );
    let std_b = StdSyncBarrier::new(p);
    println!(
        "  {:>18}: {:?}",
        std_b.name(),
        time_thread_barrier(&std_b, p, iters)
    );
}
