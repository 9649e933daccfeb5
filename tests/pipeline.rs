//! End-to-end integration: the full paper pipeline across all crates.
//!
//! profile (measured on the simulator) → cluster → tune → verify →
//! compile → execute on both backends.

use hbarrier::core::algorithms::Algorithm;
use hbarrier::core::codegen::compile_schedule;
use hbarrier::core::verify;
use hbarrier::prelude::*;
use hbarrier::simnet::barrier::{measure_schedule, staggered_delay_check};
use hbarrier::simnet::profiling::ProfilingConfig;
use hbarrier::simnet::{measure_profile_decomposed, LocalExecutor, NoiseModel, SweepConfig};
use hbarrier::threadrun::harness;

/// The complete workflow of Fig. 1 on a 2-node machine, with a *measured*
/// (noisy) profile rather than a closed-form one.
#[test]
fn measured_profile_to_tuned_barrier_end_to_end() {
    let machine = MachineSpec::dual_quad_cluster(2);
    let mapping = RankMapping::RoundRobin;
    let p = 12;

    // Part 1 of the method: collect the topology map, every pair measured.
    let (noise, fast) = (NoiseModel::realistic(41), ProfilingConfig::fast());
    let (profile, _) = measure_profile_decomposed(
        &machine,
        &mapping,
        p,
        noise,
        &SweepConfig::exact(fast.clone()),
        &mut LocalExecutor::new(machine.clone(), noise, fast),
    )
    .expect("local execution is infallible");
    assert_eq!(profile.p, p);

    // Part 2: tune, verify, predict.
    let members: Vec<usize> = (0..p).collect();
    let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    assert!(verify::is_barrier(&tuned.schedule));
    assert!(tuned.predicted_cost > 0.0);

    // Execute on the simulator under the same placement; the prediction
    // and the measurement must agree within the error band the paper
    // reports (hundreds of µs absolute; we allow 3x relative slack since
    // the profile itself is noisy).
    let cfg = SimConfig {
        machine,
        mapping,
        noise: NoiseModel::realistic(42),
    };
    let mut world = SimWorld::new(cfg, p);
    let measured = measure_schedule(&mut world, &tuned.schedule, 10);
    assert!(measured > 0.0);
    let ratio = measured / tuned.predicted_cost;
    assert!(
        (0.33..3.0).contains(&ratio),
        "prediction {} vs measured {measured}",
        tuned.predicted_cost
    );

    // The tuned barrier must also beat (or match) the neutral tree here.
    let neutral = Algorithm::Tree.full_schedule(p, &members);
    let neutral_time = measure_schedule(&mut world, &neutral, 10);
    assert!(
        measured < neutral_time * 1.15,
        "hybrid {measured} not competitive with neutral {neutral_time}"
    );
}

/// The same compiled programs run on the simulator and on real threads;
/// both must satisfy the staggered-delay synchronization property.
#[test]
fn both_backends_agree_on_synchronization() {
    let machine = MachineSpec::dual_quad_cluster(1);
    let profile = TopologyProfile::from_ground_truth(&machine, &RankMapping::Block);
    let members: Vec<usize> = (0..profile.p).collect();
    let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());

    // Simulator backend.
    let mut world = SimWorld::new(SimConfig::exact(machine, RankMapping::Block), profile.p);
    let (sim_ok, _) = staggered_delay_check(&mut world, &tuned.schedule, 10_000_000);
    assert!(sim_ok);

    // Thread backend (smaller delay to keep wall-clock short; 8 threads).
    let (thr_ok, _) =
        harness::staggered_delay_check(&tuned.schedule, std::time::Duration::from_millis(10));
    assert!(thr_ok);
}

/// Predictions from a profile distinguish the three paper algorithms the
/// same way simulated measurements do (the §VI validation claim), on a
/// 4-node machine.
#[test]
fn prediction_orders_algorithms_like_measurement() {
    let machine = MachineSpec::dual_quad_cluster(4);
    let mapping = RankMapping::RoundRobin;
    let p = 32;
    let profile = TopologyProfile::from_ground_truth_for(&machine, &mapping, p);
    let members: Vec<usize> = (0..p).collect();
    let mut eval = CostEvaluator::new(CostParams::default());

    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    for alg in Algorithm::PAPER_SET {
        let sched = alg.full_schedule(p, &members);
        predicted.push((alg.tag(), eval.barrier_cost(&sched, &profile.cost, None)));
        let mut world = SimWorld::new(SimConfig::exact(machine.clone(), mapping.clone()), p);
        measured.push((alg.tag(), measure_schedule(&mut world, &sched, 5)));
    }
    let order = |mut v: Vec<(String, f64)>| {
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        v.into_iter().map(|x| x.0).collect::<Vec<_>>()
    };
    assert_eq!(order(predicted), order(measured));
}

/// Profiles survive a disk round trip and still drive the tuner to the
/// same schedule (the off-line tuning workflow of Fig. 1).
#[test]
fn stored_profile_reproduces_tuning() {
    let machine = MachineSpec::dual_hex_cluster(2);
    let profile = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
    let dir = std::env::temp_dir().join("hbarrier_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.json");
    profile.save(&path).unwrap();
    let reloaded = TopologyProfile::load(&path).unwrap();
    let members: Vec<usize> = (0..profile.p).collect();
    let a = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    let b = tune_hybrid_costs(&reloaded.cost, &members, &TunerConfig::default());
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.predicted_cost, b.predicted_cost);
    std::fs::remove_file(&path).ok();
}

/// The generated per-rank programs match the schedule's signal counts,
/// crate boundaries notwithstanding.
#[test]
fn compiled_programs_conserve_signals() {
    let machine = MachineSpec::dual_quad_cluster(3);
    let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, 22);
    let members: Vec<usize> = (0..22).collect();
    let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    let programs = compile_schedule(&tuned.schedule).expect("tuned schedule compiles");
    let sends: usize = programs.iter().map(|p| p.send_count()).sum();
    let recvs: usize = programs.iter().map(|p| p.recv_count()).sum();
    assert_eq!(sends, tuned.schedule.total_signals());
    assert_eq!(recvs, tuned.schedule.total_signals());
}
