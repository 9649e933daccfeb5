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
