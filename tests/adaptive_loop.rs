//! Closed-loop run-time adaptation (§VIII of the paper, end to end):
//!
//! deploy a tuned barrier → conditions change → live traces re-estimate
//! link costs → the adaptive controller prices and performs a re-tune →
//! the new schedule measurably beats the old one under the new
//! conditions.

use hbarrier::core::adaptive::{AdaptiveBarrier, AdaptiveConfig};
use hbarrier::core::compose::{tune_hybrid_costs, tune_hybrid_costs_with};
use hbarrier::core::cost::CostEvaluator;
use hbarrier::prelude::*;
use hbarrier::simnet::barrier::schedule_programs;
use hbarrier::simnet::ns_to_sec;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A machine whose inter-node fabric is congested by `factor`.
fn congested(base: &MachineSpec, factor: f64) -> MachineSpec {
    let mut m = base.clone();
    let c = &mut m.ground_truth.inter_node;
    c.wire_ns = (c.wire_ns as f64 * factor) as u64;
    c.nic_tx_ns = (c.nic_tx_ns as f64 * factor) as u64;
    c.nic_rx_ns = (c.nic_rx_ns as f64 * factor) as u64;
    c.cpu_recv_ns = (c.cpu_recv_ns as f64 * factor) as u64;
    m
}

#[test]
fn trace_driven_retuning_loop() {
    let machine = MachineSpec::dual_quad_cluster(3);
    let mapping = RankMapping::RoundRobin;
    let p = 22;
    let profile = TopologyProfile::from_ground_truth_for(&machine, &mapping, p);
    let members: Vec<usize> = (0..p).collect();

    let mut controller = AdaptiveBarrier::new(
        &profile.cost,
        &members,
        TunerConfig::default(),
        AdaptiveConfig {
            window: 4,
            degradation_threshold: 1.5,
            retune_overhead: 1e-3,
        },
    );

    // Conditions change: the network is now heavily congested.
    let busy_machine = congested(&machine, 8.0);
    let mut busy_world = SimWorld::new(SimConfig::exact(busy_machine.clone(), mapping.clone()), p);

    // Run the deployed barrier under congestion, collecting traces and
    // observations.
    let mut trace_costs = profile.cost.clone();
    for _ in 0..4 {
        let programs = schedule_programs(controller.schedule(), 1);
        let (result, trace) = busy_world.run_traced(&programs).expect("barrier runs");
        controller.observe(ns_to_sec(result.makespan()));
        // Blend the observed per-message latencies into the cost model —
        // the paper's "incremental cost updates at run time".
        trace_costs = trace.refresh_costs(&trace_costs, 0.5);
    }
    assert!(controller.is_degraded(), "congestion must be detected");

    // The trace-refreshed O estimates moved toward the congested truth on
    // every *inter-node* link the barrier exercised (the links congestion
    // changed). Trace estimates carry a small systematic offset — they
    // exclude the sender's injection time — so unchanged intra-node links
    // are only required to stay within that offset of the truth.
    let true_busy = TopologyProfile::from_ground_truth_for(&busy_machine, &mapping, p);
    let cores = mapping.cores(&machine, p);
    let mut updated_inter_pairs = 0;
    for i in 0..p {
        for j in 0..p {
            if i == j || trace_costs.o[(i, j)] == profile.cost.o[(i, j)] {
                continue;
            }
            let inter = cores[i].node != cores[j].node;
            let before = (profile.cost.o[(i, j)] - true_busy.cost.o[(i, j)]).abs();
            let after = (trace_costs.o[(i, j)] - true_busy.cost.o[(i, j)]).abs();
            if inter {
                updated_inter_pairs += 1;
                assert!(
                    after < before,
                    "inter-node ({i},{j}): refresh moved away from truth ({after} !< {before})"
                );
            } else {
                assert!(after < 1e-6, "intra-node ({i},{j}): deviation {after}");
            }
        }
    }
    assert!(
        updated_inter_pairs > 0,
        "traces must update the inter-node pairs the barrier used"
    );

    // The trace estimates detect drift and flag re-profiling; the actual
    // re-tune uses a full fresh profile of the congested fabric (the
    // trace only re-measures links the old schedule used and cannot see
    // the congested `L`, so tuning from it alone could mislead — the
    // reason §VIII couples incremental updates with re-evaluation).
    let old_schedule = controller.schedule().clone();
    let decision = controller.retune_if_profitable(&true_busy.cost, 1e6);
    assert!(decision.retune, "{decision:?}");

    // The re-tuned schedule must not lose to the stale one under the
    // *actual* congested conditions.
    let programs_old = schedule_programs(&old_schedule, 5);
    let programs_new = schedule_programs(controller.schedule(), 5);
    let t_old = busy_world.run(&programs_old).expect("runs").finish;
    let t_new = busy_world.run(&programs_new).expect("runs").finish;
    let (m_old, m_new) = (
        *t_old.iter().max().unwrap() as f64,
        *t_new.iter().max().unwrap() as f64,
    );
    assert!(
        m_new <= m_old * 1.10,
        "re-tuned barrier slower under congestion: {m_new} vs {m_old}"
    );
}

/// The §VIII loop on one long-lived evaluator: every step's answer is the
/// answer of a cold tune on the same matrix. Costs drift as a power cap
/// or a busy switch moves them — one node in eight congested by a factor
/// in [1, 4], links between two nodes scaled by the larger factor, which
/// keeps `O` symmetric and reshapes the cluster tree from step to step —
/// and every fourth step re-tunes on the matrix of the step before, which
/// the evaluator must answer from what it kept.
#[test]
fn warm_retunes_equal_cold_tunes_on_drifting_costs() {
    let p = 256;
    let machine = MachineSpec::new(p / 8, 2, 4);
    let mapping = RankMapping::RoundRobin;
    let base = TopologyProfile::from_ground_truth_for(&machine, &mapping, p).cost;
    let node_of: Vec<usize> = (mapping.cores(&machine, p).iter())
        .map(|c| c.node)
        .collect();
    let members: Vec<usize> = (0..p).collect();
    let cfg = TunerConfig::default();
    let mut eval = CostEvaluator::new(cfg.cost_params);
    let mut rng = SmallRng::seed_from_u64(23);
    let mut cost = base.clone();
    let mut trees = Vec::new();
    for step in 0..16 {
        let repeated = step % 4 == 3;
        if !repeated {
            let mut factor = vec![1.0f64; machine.nodes];
            for _ in 0..machine.nodes / 8 {
                let node = rng.random::<usize>() % machine.nodes;
                factor[node] = 1.0 + 3.0 * rng.random::<f64>();
            }
            cost = base.clone();
            for m in [&mut cost.o, &mut cost.l] {
                for i in 0..p {
                    for j in 0..p {
                        if node_of[i] != node_of[j] {
                            m[(i, j)] *= factor[node_of[i]].max(factor[node_of[j]]);
                        }
                    }
                }
            }
        }
        let kept = eval.cached_scores();
        let warm = tune_hybrid_costs_with(&cost, &members, &cfg, &mut eval);
        if repeated {
            assert_eq!(eval.cached_scores(), kept, "step {step} scored again");
        }
        let cold = tune_hybrid_costs(&cost, &members, &cfg);
        assert_eq!(warm.tree, cold.tree, "step {step}");
        assert_eq!(warm.choices, cold.choices, "step {step}");
        assert_eq!(
            warm.schedule.stages(),
            cold.schedule.stages(),
            "step {step}"
        );
        assert_eq!(
            warm.predicted_cost.to_bits(),
            cold.predicted_cost.to_bits(),
            "step {step}"
        );
        trees.push(warm.tree);
    }
    trees.dedup();
    assert!(trees.len() > 4, "the drift must move the cluster tree");
}
