//! Consistency between the Eq. 1–3 analytic model and the discrete-event
//! simulator — the property Section VI of the paper establishes
//! empirically ("the combined model clearly captures the interaction
//! between the algorithm and topology").
//!
//! Both are *models*; they are not expected to agree exactly (the
//! simulator has NIC queueing and rendezvous acknowledgements the
//! analytic recurrence approximates). What must hold, as in the paper:
//! same order of magnitude everywhere, and agreement on algorithm
//! *rankings* wherever the gap between algorithms is meaningful.

use hbarrier::core::algorithms::Algorithm;
use hbarrier::prelude::*;
use hbarrier::simnet::barrier::measure_schedule;
use proptest::prelude::*;

fn ratio_bounds_hold(machine: &MachineSpec, p: usize) {
    let mapping = RankMapping::RoundRobin;
    let profile = TopologyProfile::from_ground_truth_for(machine, &mapping, p);
    let members: Vec<usize> = (0..p).collect();
    let mut eval = CostEvaluator::new(CostParams::default());
    for alg in Algorithm::PAPER_SET {
        let sched = alg.full_schedule(p, &members);
        let predicted = eval.barrier_cost(&sched, &profile.cost, None);
        let mut world = SimWorld::new(SimConfig::exact(machine.clone(), mapping.clone()), p);
        let measured = measure_schedule(&mut world, &sched, 3);
        let ratio = measured / predicted;
        assert!(
            (0.3..3.5).contains(&ratio),
            "{alg} p={p} on {}: predicted {predicted}, measured {measured} (ratio {ratio})",
            machine.name
        );
    }
}

#[test]
fn model_tracks_simulator_on_paper_machines() {
    for (machine, sizes) in [
        (MachineSpec::dual_quad_cluster(8), vec![8usize, 22, 40, 64]),
        (MachineSpec::dual_hex_cluster(10), vec![12, 60, 120]),
    ] {
        for &p in &sizes {
            ratio_bounds_hold(&machine, p);
        }
    }
}

#[test]
fn model_and_simulator_agree_on_large_gaps() {
    // Whenever two algorithms differ by 2x in one model, the other model
    // must place them in the same order (the decision-quality property
    // the tuner relies on).
    let machine = MachineSpec::dual_quad_cluster(8);
    let mapping = RankMapping::RoundRobin;
    for p in [16usize, 32, 48, 64] {
        let profile = TopologyProfile::from_ground_truth_for(&machine, &mapping, p);
        let members: Vec<usize> = (0..p).collect();
        let mut eval = CostEvaluator::new(CostParams::default());
        let mut results = Vec::new();
        for alg in Algorithm::PAPER_SET {
            let sched = alg.full_schedule(p, &members);
            let predicted = eval.barrier_cost(&sched, &profile.cost, None);
            let mut world = SimWorld::new(SimConfig::exact(machine.clone(), mapping.clone()), p);
            let measured = measure_schedule(&mut world, &sched, 3);
            results.push((alg, predicted, measured));
        }
        for i in 0..results.len() {
            for j in 0..results.len() {
                let (a, pa, ma) = results[i];
                let (b, pb, mb) = results[j];
                if pa * 2.0 < pb {
                    assert!(
                        ma < mb,
                        "p={p}: model says {a} ≪ {b} ({pa} vs {pb}) but simulator disagrees ({ma} vs {mb})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random machines, random paper algorithm: the ratio bound holds.
    #[test]
    fn ratio_bound_on_random_machines(
        nodes in 1usize..4,
        sockets in 1usize..3,
        cores in 1usize..4,
        alg_idx in 0usize..3,
    ) {
        let machine = MachineSpec::new(nodes, sockets, cores);
        let p = machine.total_cores();
        prop_assume!(p >= 2);
        let mapping = RankMapping::RoundRobin;
        let profile = TopologyProfile::from_ground_truth(&machine, &mapping);
        let members: Vec<usize> = (0..p).collect();
        let alg = Algorithm::PAPER_SET[alg_idx];
        let sched = alg.full_schedule(p, &members);
        let predicted =
            CostEvaluator::new(CostParams::default()).barrier_cost(&sched, &profile.cost, None);
        let mut world = SimWorld::new(SimConfig::exact(machine, mapping), p);
        let measured = measure_schedule(&mut world, &sched, 2);
        let ratio = measured / predicted;
        prop_assert!((0.2..5.0).contains(&ratio), "{alg} p={p}: ratio {ratio}");
    }
}

// The gap as it stands: on noise-free ground-truth costs, block placement,
// one execution of a zero-noise simulation. A step waits for its receives
// alone and a rank for its sends once, at exit, so the model is off by
// three terms: one acknowledgement per barrier (A), a departure startup per
// Eq. 2 stage (B), and an over-charge per `General` stage before the last
// (C). These tests pin today's values so a change that moves them shows;
// they are not a quality gate, and the model that prices the terms
// replaces them with a per-stage agreement bound.

/// Term A: the `Issend` acknowledgement. A rank leaves the barrier one
/// wire time after the receiver of its last signal takes it; the model
/// finishes that sender at O + L. Once per barrier, on an inter-node last
/// stage, in µs.
const TERM_A_US: f64 = 18.06;
/// Term B: a `ReceiversAwaiting` (Eq. 2) departure stage is priced with
/// the local call overhead O_ii; the simulator charges a full one-way
/// message there. Per inter-node stage, in µs.
const TERM_B_US: f64 = 37.94;
/// Term C: the model holds each `General` sender for O + L before its
/// next stage, but the simulated sender is free once it has injected its
/// signal. Per inter-node stage before the last, in µs, subtracted.
const TERM_C_US: f64 = 11.94;

/// `(predicted, measured)` barrier time in µs of `schedule` on `machine`.
fn predicted_and_measured_us(machine: &MachineSpec, schedule: &BarrierSchedule) -> (f64, f64) {
    let (mapping, p) = (RankMapping::Block, schedule.n());
    let profile = TopologyProfile::from_ground_truth_for(machine, &mapping, p);
    let predicted =
        CostEvaluator::new(CostParams::default()).barrier_cost(schedule, &profile.cost, None);
    let mut world = SimWorld::new(SimConfig::exact(machine.clone(), mapping), p);
    (
        predicted * 1e6,
        measure_schedule(&mut world, schedule, 1) * 1e6,
    )
}

fn assert_gap_us(machine: &MachineSpec, alg: Algorithm, expected: f64) {
    let p = machine.total_cores();
    let members: Vec<usize> = (0..p).collect();
    let (predicted, measured) = predicted_and_measured_us(machine, &alg.full_schedule(p, &members));
    assert!(
        (measured - predicted - expected).abs() < 1e-6,
        "{alg} p={p}: predicted {predicted} µs, measured {measured} µs, gap expected {expected} µs"
    );
}

/// Two ranks on two nodes: dissemination (one `General` stage) runs
/// A = 18.06 µs longer than predicted; the tree (a `General` arrival and
/// a `ReceiversAwaiting` departure) A + B = 18.06 + 37.94 = 56.00 µs.
#[test]
fn two_node_gap_is_term_a_per_general_stage_and_b_per_departure() {
    let machine = MachineSpec::new(2, 1, 1);
    assert_gap_us(&machine, Algorithm::Dissemination, TERM_A_US);
    assert_gap_us(&machine, Algorithm::Tree, TERM_A_US + TERM_B_US);
}

/// One rank per node: dissemination's log₂ P stages are all inter-node.
/// It pays A (18.06 µs) once, at exit, and the model over-charges each of
/// the first log₂ P − 1 stages by C (11.94 µs): +18.06 / +6.12 / −5.82 /
/// −17.76 µs at P = 2 / 4 / 8 / 16. B does not enter: dissemination has
/// no departure stage.
#[test]
fn dissemination_gap_is_one_ack_less_term_c_per_earlier_stage() {
    for p in [2usize, 4, 8, 16] {
        let earlier = f64::from(p.trailing_zeros() - 1);
        assert_gap_us(
            &MachineSpec::new(p, 1, 1),
            Algorithm::Dissemination,
            TERM_A_US - earlier * TERM_C_US,
        );
    }
}

/// On `MachineSpec::new(P / 8, 2, 4)`, each algorithm's relative error
/// (predicted − measured) / measured, in percent, within 0.5 points of
/// today's. The tree pays B (37.94 µs) on each departure level, so the
/// model is furthest below it; dissemination, all `General` stages, is
/// over-charged C (11.94 µs) on each but its last, so the model is above
/// it; linear, two stages against P − 1 serialized messages, is closest.
#[test]
fn relative_errors_at_p64_and_p256() {
    for (p, expected) in [
        (64usize, [-7.06, 29.56, -31.19, -9.58]),
        (256, [-1.81, 28.04, -29.23, -1.51]),
    ] {
        let machine = MachineSpec::new(p / 8, 2, 4);
        let members: Vec<usize> = (0..p).collect();
        let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::Block, p);
        let hybrid = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default()).schedule;
        let schedules = [
            ("linear", Algorithm::Linear.full_schedule(p, &members)),
            (
                "dissemination",
                Algorithm::Dissemination.full_schedule(p, &members),
            ),
            ("tree", Algorithm::Tree.full_schedule(p, &members)),
            ("hybrid", hybrid),
        ];
        for ((name, schedule), expected) in schedules.iter().zip(expected) {
            let (predicted, measured) = predicted_and_measured_us(&machine, schedule);
            let rel_err = (predicted - measured) / measured * 100.0;
            assert!(
                (rel_err - expected).abs() <= 0.5,
                "{name} p={p}: predicted {predicted:.2} µs, measured {measured:.2} µs, \
                 error {rel_err:.2} % (pinned {expected} %)"
            );
        }
    }
}
