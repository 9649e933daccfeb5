//! Quickstart: profile a (simulated) cluster, tune a hybrid barrier for
//! it, and compare it against the topology-neutral baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hbarrier::core::algorithms::Algorithm;
use hbarrier::core::codegen::{c_source, compile_schedule};
use hbarrier::core::cost::{predict_barrier_cost, CostParams};
use hbarrier::prelude::*;
use hbarrier::simnet::barrier::measure_schedule;
use hbarrier::simnet::NoiseModel;

fn main() {
    // The paper's cluster A at half size: 4 nodes of dual quad-cores,
    // ranks placed round-robin like the paper's batch scheduler.
    let machine = MachineSpec::dual_quad_cluster(4);
    let mapping = RankMapping::RoundRobin;
    let p = machine.total_cores();
    println!("platform: {} ({p} cores)", machine.name);

    // 1. Topology profile. For brevity this uses the closed-form profile;
    //    `profile_cluster.rs` shows the full measured-benchmark route.
    let profile = TopologyProfile::from_ground_truth(&machine, &mapping);

    // 2. Tune a hybrid barrier with the paper's configuration
    //    (SSS sparseness 35 %, candidates {linear, dissemination, tree}).
    let members: Vec<usize> = (0..p).collect();
    let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    assert!(
        tuned.schedule.is_barrier(),
        "composition is always verified"
    );
    println!(
        "tuned hybrid: {} stages, {} signals, root algorithm {}",
        tuned.schedule.len(),
        tuned.schedule.total_signals(),
        tuned
            .root_algorithm()
            .expect("multi-rank barrier has a root"),
    );

    // 3. Predict both the hybrid and the neutral tree baseline.
    let neutral = Algorithm::Tree.full_schedule(p, &members);
    let params = CostParams::default();
    let pred_hybrid = predict_barrier_cost(&tuned.schedule, &profile.cost, &params, None);
    let pred_neutral = predict_barrier_cost(&neutral, &profile.cost, &params, None);
    println!(
        "predicted: hybrid {:.1} us vs neutral tree {:.1} us",
        pred_hybrid.barrier_cost * 1e6,
        pred_neutral.barrier_cost * 1e6
    );

    // 4. Measure both on the simulated cluster (with realistic noise).
    let cfg = SimConfig {
        machine,
        mapping,
        noise: NoiseModel::realistic(1),
    };
    let mut world = SimWorld::new(cfg, p);
    let meas_hybrid = measure_schedule(&mut world, &tuned.schedule, 25);
    let meas_neutral = measure_schedule(&mut world, &neutral, 25);
    println!(
        "measured:  hybrid {:.1} us vs neutral tree {:.1} us ({:.2}x)",
        meas_hybrid * 1e6,
        meas_neutral * 1e6,
        meas_neutral / meas_hybrid
    );

    // 5. Emit the hard-coded C barrier the paper's generator would write.
    let programs = compile_schedule(&tuned.schedule).expect("schedule compiles");
    let c = c_source("hybrid_barrier", &programs).expect("valid identifier");
    println!(
        "\ngenerated C barrier: {} lines (showing first 12)\n",
        c.lines().count()
    );
    for line in c.lines().take(12) {
        println!("  {line}");
    }
}
