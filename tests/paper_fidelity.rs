//! Fidelity tests: the exact artifacts printed in the paper.
//!
//! Figures 2–4 give the matrix encodings of the three component
//! algorithms for |P| = 4; §V and §VII state structural facts (stage
//! counts, Eq. 3, the root-dissemination rule, Fig. 10's cluster layout).
//! These tests pin our implementation to those artifacts.

use hbarrier::core::algorithms::Algorithm;
use hbarrier::core::compose::{level_candidates, tune_hybrid_costs, TunerConfig};
use hbarrier::core::verify;
use hbarrier::matrix::BoolMatrix;
use hbarrier::prelude::*;

fn rows(rows: &[[u8; 4]]) -> BoolMatrix {
    BoolMatrix::from_rows(
        &rows
            .iter()
            .map(|r| r.iter().map(|&v| v == 1).collect::<Vec<bool>>())
            .collect::<Vec<_>>(),
    )
}

/// Figure 2: the linear barrier for |P| = 4 is S0 (everyone signals the
/// master) followed by S1 = S0ᵀ.
#[test]
fn figure2_linear_barrier_matrices() {
    let members = [0, 1, 2, 3];
    let sched = Algorithm::Linear.full_schedule(4, &members);
    assert_eq!(sched.len(), 2);
    let s0 = rows(&[[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]);
    assert_eq!(sched.stages()[0].matrix.to_dense(), s0);
    assert_eq!(sched.stages()[1].matrix.to_dense(), s0.transpose());
}

/// Figure 3: the dissemination barrier for |P| = 4.
#[test]
fn figure3_dissemination_barrier_matrices() {
    let members = [0, 1, 2, 3];
    let sched = Algorithm::Dissemination.full_schedule(4, &members);
    assert_eq!(sched.len(), 2, "no departure phase");
    let s0 = rows(&[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]);
    let s1 = rows(&[[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]);
    assert_eq!(sched.stages()[0].matrix.to_dense(), s0);
    assert_eq!(sched.stages()[1].matrix.to_dense(), s1);
}

/// Figure 4: the tree barrier for |P| = 4: S0, S1, S2 = S1ᵀ, S3 = S0ᵀ.
#[test]
fn figure4_tree_barrier_matrices() {
    let members = [0, 1, 2, 3];
    let sched = Algorithm::Tree.full_schedule(4, &members);
    assert_eq!(sched.len(), 4);
    let s0 = rows(&[[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]);
    let s1 = rows(&[[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]);
    assert_eq!(sched.stages()[0].matrix.to_dense(), s0);
    assert_eq!(sched.stages()[1].matrix.to_dense(), s1);
    assert_eq!(sched.stages()[2].matrix.to_dense(), s1.transpose());
    assert_eq!(sched.stages()[3].matrix.to_dense(), s0.transpose());
}

/// §V-B stage counts: linear 2 stages, tree 2·⌈log₂P⌉, dissemination
/// ⌈log₂P⌉ — at the paper's largest sizes.
#[test]
fn section5_stage_counts_at_paper_sizes() {
    for (p, log2) in [(64usize, 6usize), (120, 7)] {
        let members: Vec<usize> = (0..p).collect();
        assert_eq!(Algorithm::Linear.full_schedule(p, &members).len(), 2);
        assert_eq!(Algorithm::Tree.full_schedule(p, &members).len(), 2 * log2);
        assert_eq!(
            Algorithm::Dissemination.full_schedule(p, &members).len(),
            log2
        );
    }
}

/// Eq. 3 acceptance on the paper's own examples: all three |P|=4
/// encodings pass, and removing any stage breaks them.
#[test]
fn equation3_acceptance_and_necessity() {
    let members = [0, 1, 2, 3];
    for alg in Algorithm::PAPER_SET {
        let sched = alg.full_schedule(4, &members);
        assert!(verify::is_barrier(&sched), "{alg}");
        // Dropping the final stage must break the barrier.
        let mut truncated = hbarrier::core::schedule::BarrierSchedule::new(4);
        for s in &sched.stages()[..sched.len() - 1] {
            truncated.push(s.clone());
        }
        assert!(!verify::is_barrier(&truncated), "{alg} without last stage");
    }
}

/// §VII-A: with the paper's 35 % sparseness, both test systems cluster at
/// node granularity, "with rank 0 as a member of the first cluster".
#[test]
fn section7_clustering_matches_paper() {
    use hbarrier::core::clustering::{sss_clusters, SSS_DEFAULT_SPARSENESS};
    use hbarrier::topo::metric::DistanceMetric;
    for (machine, p, nodes) in [
        (MachineSpec::dual_quad_cluster(8), 64usize, 8usize),
        (MachineSpec::dual_hex_cluster(10), 120, 10),
    ] {
        let prof = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p);
        let metric = DistanceMetric::from_costs(&prof.cost);
        let members: Vec<usize> = (0..p).collect();
        let clusters = sss_clusters(&metric, &members, SSS_DEFAULT_SPARSENESS, metric.diameter());
        assert_eq!(clusters.len(), nodes);
        assert_eq!(clusters[0][0], 0);
    }
}

/// §VII-B: dissemination wins the root of a uniform high-latency top
/// level, and a dissemination root needs no departure. Each candidate is
/// priced by its full local schedule, whose Eq. 2 departure costs less
/// than the Eq. 1 arrival it mirrors, so the top level must be wide for
/// the paper's radix-2 dissemination to win: it does at 32 dual
/// quad-core nodes under both placements. On cluster A's 8 node
/// representatives the linear barrier wins the paper's tuner the top
/// instead, and that tune predicts exactly what forcing linear at every
/// level does — the kind of top-level change the paper itself observes
/// in Fig. 11 ("a change of top-level algorithms was found profitable");
/// EXPERIMENTS.md discusses the deviation. The default tuner, which
/// picks the dissemination radix, puts the dissemination family at both
/// roots: three 6-way stages over 32 nodes, one 8-way stage over 8.
#[test]
fn section7_root_dissemination_rule() {
    let machine = MachineSpec::new(32, 2, 4);
    for mapping in [RankMapping::Block, RankMapping::RoundRobin] {
        let prof = TopologyProfile::from_ground_truth(&machine, &mapping);
        let members: Vec<usize> = (0..prof.p).collect();
        for (cfg, root) in [
            (TunerConfig::paper(), Algorithm::Dissemination),
            (TunerConfig::default(), Algorithm::NWay(6)),
        ] {
            let tuned = tune_hybrid_costs(&prof.cost, &members, &cfg);
            assert_eq!(tuned.root_algorithm(), Some(root), "{mapping:?}");
            // No departure stages transpose the root dissemination: the
            // final schedule has fewer than 2x the arrival stage count.
            let total = tuned.schedule.len();
            let arrival = tuned
                .schedule
                .stages()
                .iter()
                .filter(|s| s.mode == hbarrier::topo::cost::SendMode::General)
                .count();
            assert!(
                total < 2 * arrival,
                "{mapping:?}, {root}: root stages must not be transposed"
            );
        }
    }

    let machine = MachineSpec::dual_quad_cluster(8);
    let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
    let members: Vec<usize> = (0..prof.p).collect();
    let tuned = tune_hybrid_costs(&prof.cost, &members, &TunerConfig::paper());
    let linear = tune_hybrid_costs(
        &prof.cost,
        &members,
        &TunerConfig::forced(Algorithm::Linear),
    );
    assert_eq!(tuned.root_algorithm(), Some(Algorithm::Linear));
    assert_eq!(tuned.predicted_cost, linear.predicted_cost);
    let tuned = tune_hybrid_costs(&prof.cost, &members, &TunerConfig::default());
    assert_eq!(tuned.root_algorithm(), Some(Algorithm::NWay(8)));
}

/// On cluster B the greedy selection is self-consistent: whatever it
/// picks at the root prices lowest among the candidates it could pick —
/// the paper set for the paper's tuner, every dissemination radix besides
/// for the default one — when each candidate's full local schedule
/// (arrival, then the transposed departure unless dissemination) is
/// predicted embedded over all ranks, and that price is the score the
/// tune reports.
#[test]
fn section7_root_choice_is_greedy_optimal_on_cluster_b() {
    let machine = MachineSpec::dual_hex_cluster(10);
    let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
    let members: Vec<usize> = (0..prof.p).collect();
    let mut eval = CostEvaluator::new(CostParams::default());
    // Linear wins the paper's tuner cluster B's top level of 10 node
    // representatives; 4-way dissemination wins the default tuner's.
    for (cfg, expected) in [
        (TunerConfig::paper(), Algorithm::Linear),
        (TunerConfig::default(), Algorithm::NWay(4)),
    ] {
        let tuned = tune_hybrid_costs(&prof.cost, &members, &cfg);
        let root = tuned
            .choices
            .iter()
            .find(|c| c.depth == 0)
            .expect("root choice");
        let mut score_of = |alg: Algorithm| {
            let arrival = alg.arrival_embedded(prof.p, &root.participants);
            let mut sched = BarrierSchedule::from_arrival_matrices(prof.p, arrival);
            if alg.needs_departure() {
                sched.append(sched.departure_reversed(0));
            }
            eval.barrier_cost(&sched, &prof.cost, None)
        };
        let best = (cfg.candidates.iter())
            .flat_map(|&c| level_candidates(c, root.participants.len()))
            .map(|a| (a, score_of(a)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("candidates");
        assert_eq!(root.algorithm, best.0, "greedy picked a non-minimal root");
        assert_eq!(root.score, best.1, "the root's score is its embedded price");
        assert_eq!(root.algorithm, expected);
    }
}

/// Fig. 10's case: 22 processes round-robin on 3 nodes produce exactly
/// the member sets the paper lists (ranks ≡ node index mod 3; e.g.
/// "ranks 5, 8, 11, 14, 17 and 20" share node 2 with representative 2).
#[test]
fn figure10_round_robin_member_sets() {
    let machine = MachineSpec::dual_quad_cluster(3);
    let prof = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, 22);
    let members: Vec<usize> = (0..22).collect();
    let tuned = tune_hybrid_costs(&prof.cost, &members, &TunerConfig::default());
    assert_eq!(tuned.tree.children.len(), 3);
    let node2: Vec<usize> = tuned.tree.children[2].members.clone();
    assert_eq!(node2, vec![2, 5, 8, 11, 14, 17, 20]);
    assert_eq!(tuned.tree.children[2].representative(), 2);
}
