//! The greedy tuner implementation.

use crate::algorithms::Algorithm;
use crate::clustering::{ClusterNode, SSS_DEFAULT_SPARSENESS};
use crate::cost::{member_set_hash, CostEvaluator, CostParams, ScoreKey};
use crate::schedule::{BarrierSchedule, Stage};
use hbar_matrix::SparseBoolMatrix;
use hbar_topo::cost::CostProvider;

/// Configuration of the adaptive tuner.
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// SSS sparseness as a fraction of the clustered set's diameter
    /// (paper: 0.35).
    pub sparseness: f64,
    /// Candidate component algorithms (paper: linear, dissemination, tree).
    pub candidates: Vec<Algorithm>,
    /// Field-less: the cost model has no options (see [`CostParams`]);
    /// kept because the pipeline benchmark names it.
    pub cost_params: CostParams,
    /// Maximum cluster-tree depth.
    pub max_depth: usize,
    /// Score candidates by the predicted cost of their full local
    /// schedule (arrival + actual transposed departure) instead of the
    /// paper's "arrival × 2" approximation. The ablation study shows the
    /// ×2 rule can misrank closely scored candidates (its Eq. 1 arrival
    /// cost overestimates the cheaper Eq. 2 departure); this is one of
    /// the paper's future-work generalizations.
    pub score_exact: bool,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            sparseness: SSS_DEFAULT_SPARSENESS,
            candidates: Algorithm::PAPER_SET.to_vec(),
            cost_params: CostParams::default(),
            max_depth: 8,
            score_exact: false,
        }
    }
}

impl TunerConfig {
    /// A configuration with the extended algorithm set (future-work
    /// generalization).
    pub fn extended() -> Self {
        TunerConfig {
            candidates: Algorithm::extended_set(),
            ..Self::default()
        }
    }

    /// Force a single component algorithm at every level (ablation).
    pub fn forced(algorithm: Algorithm) -> Self {
        TunerConfig {
            candidates: vec![algorithm],
            ..Self::default()
        }
    }
}

/// The algorithm chosen for one cluster of the tree.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelChoice {
    /// The ranks participating at this level: the cluster's own members
    /// for a leaf, or the representatives of its children.
    pub participants: Vec<usize>,
    /// Depth in the cluster tree (0 = root).
    pub depth: usize,
    /// The greedily selected algorithm.
    pub algorithm: Algorithm,
    /// The score it was selected on. Under the paper's rule, the
    /// arrival-phase critical path × 2 (× 1 for fully synchronizing
    /// algorithms at the root); with [`TunerConfig::score_exact`], the
    /// critical path of the full local schedule, departure included
    /// unless skipped at the root.
    pub score: f64,
}

/// Result of tuning: the composed hybrid schedule plus its provenance.
#[derive(Clone, Debug)]
pub struct TunedBarrier {
    /// The complete, verified hybrid barrier schedule.
    pub schedule: BarrierSchedule,
    /// The cluster tree the composition followed.
    pub tree: ClusterNode,
    /// Per-cluster algorithm selections, parents before children.
    pub choices: Vec<LevelChoice>,
    /// Predicted critical-path cost of the full schedule (seconds).
    pub predicted_cost: f64,
}

impl TunedBarrier {
    /// The algorithm chosen at the root level (top of the hierarchy).
    pub fn root_algorithm(&self) -> Option<Algorithm> {
        self.choices
            .iter()
            .find(|c| c.depth == 0)
            .map(|c| c.algorithm)
    }
}

/// Tunes a hybrid barrier for the ranks `members` of a cost model — all
/// of a profile's ranks are `(0..profile.p).collect()` over
/// `&profile.cost`. No machine metadata is required, so this is also the
/// entry point for platforms beyond the hierarchical clusters the paper
/// evaluates (its §VIII generalization): any cost model whose
/// symmetrization is a metric drives the SSS clustering and the greedy
/// composition identically. Generic over the [`CostProvider`] backing —
/// dense matrices and the class-compressed model tune bit-identically
/// when their entries are bit-equal.
///
/// # Panics
/// Panics if `members` is empty, not strictly ascending, or names a rank
/// `≥ cost.p()` (the message names the first offending position); if no
/// candidate algorithm is applicable to some cluster size; or if
/// composition produces an invalid barrier (which would be a bug — the
/// construction is verified with Eq. 3).
pub fn tune_hybrid_costs<C: CostProvider + ?Sized>(
    cost: &C,
    members: &[usize],
    cfg: &TunerConfig,
) -> TunedBarrier {
    let mut eval = CostEvaluator::new(cfg.cost_params);
    tune_hybrid_costs_with(cost, members, cfg, &mut eval)
}

/// [`tune_hybrid_costs`] with a caller-owned [`CostEvaluator`], so
/// repeated tunes (e.g. the adaptive re-tuning loop) reuse its scratch
/// buffers and — when the cost matrices are unchanged — its memoized
/// per-cluster scores.
///
/// # Panics
/// As [`tune_hybrid_costs`].
pub fn tune_hybrid_costs_with<C: CostProvider + ?Sized>(
    cost: &C,
    members: &[usize],
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
) -> TunedBarrier {
    assert!(!members.is_empty(), "cannot tune a barrier for zero ranks");
    // Ascending members make every level's participants ascending (SSS
    // keeps scan order, and a level's representatives are its children's
    // first members), which is what lets a candidate be priced in its
    // participants' own index space.
    if let Some(k) = members.windows(2).position(|w| w[0] >= w[1]) {
        panic!(
            "members must be strictly ascending: position {} holds {} after {}",
            k + 1,
            members[k + 1],
            members[k]
        );
    }
    if let Some(k) = members.iter().position(|&r| r >= cost.p()) {
        panic!(
            "member {} at position {k} is out of range for {} ranks",
            members[k],
            cost.p()
        );
    }
    assert!(
        !cfg.candidates.is_empty(),
        "need at least one candidate algorithm"
    );
    eval.rebind(cost);
    let tree = eval.cluster_tree(cost, members, cfg.sparseness, cfg.max_depth);
    let n = cost.p();
    let plan = plan_node(&tree, 0, cost, cfg, eval);
    // A fully synchronizing root's own stages need no departure.
    let skip = match plan.choice {
        Some((algorithm, _)) if !algorithm.needs_departure() => plan.local_stages.len(),
        _ => 0,
    };
    let mut signals = vec![Vec::new(); plan.len];
    emit(&plan, &mut signals, 0);
    let mut schedule = BarrierSchedule::new(n);
    for pairs in signals {
        schedule.push(Stage::arrival(SparseBoolMatrix::from_pairs(n, pairs)));
    }
    let mut choices = Vec::new();
    collect_choices(plan, 0, &mut choices);
    schedule.append(schedule.departure_reversed(skip));
    schedule.strip_noop_stages();

    debug_assert!(
        eval.synchronizes_subset(&schedule, members),
        "composed schedule fails verification:\n{schedule}"
    );

    let predicted_cost = eval.barrier_cost(&schedule, cost, None);
    TunedBarrier {
        schedule,
        tree,
        choices,
        predicted_cost,
    }
}

/// One planned cluster level: the algorithm is selected and its local
/// stages generated, but nothing is mapped into the global rank space
/// yet. Splitting planning from emission keeps the entire selection pass
/// in cluster-local index spaces; [`emit`] then maps every level's
/// signals onto global ranks in one pass over the plan.
struct PlanNode {
    /// Level participants (leaf members or child representatives), in
    /// the tree's discovery order; empty for singleton levels, which
    /// contribute no stages.
    participants: Vec<usize>,
    /// The greedy selection and its score; `None` for singleton levels.
    choice: Option<(Algorithm, f64)>,
    /// The selection's arrival stages over local ranks `0..m`.
    local_stages: Vec<SparseBoolMatrix>,
    /// Child plans, in cluster order.
    children: Vec<PlanNode>,
    /// Arrival stages this subtree spans: the deepest child span plus
    /// this level's own stages.
    len: usize,
}

/// Recursively selects algorithms for `node`'s subtree.
fn plan_node<C: CostProvider + ?Sized>(
    node: &ClusterNode,
    depth: usize,
    cost: &C,
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
) -> PlanNode {
    let children: Vec<PlanNode> = (node.children.iter())
        .map(|c| plan_node(c, depth + 1, cost, cfg, eval))
        .collect();
    let participants: Vec<usize> = if node.is_leaf() {
        node.members.clone()
    } else {
        node.children
            .iter()
            .map(ClusterNode::representative)
            .collect()
    };
    let child_span = children.iter().map(|c| c.len).max().unwrap_or(0);
    if participants.len() < 2 {
        // A singleton level contributes no signals.
        return PlanNode {
            participants: Vec::new(),
            choice: None,
            local_stages: Vec::new(),
            children,
            len: child_span,
        };
    }
    let (algorithm, score) = select_algorithm(&participants, depth == 0, cost, cfg, eval);
    let local_stages = algorithm.arrival_local(participants.len());
    let len = child_span + local_stages.len();
    PlanNode {
        participants,
        choice: Some((algorithm, score)),
        local_stages,
        children,
        len,
    }
}

/// Collects a plan's arrival signals, as global `(sender, target)` pairs
/// per stage, starting at stage `offset`: children merge concurrently,
/// aligned at their first stage, and the node's own level follows the
/// deepest child (§VII-B's "merge shorter sequences with longer ones as
/// early as possible"). Clusters arrive in tree order, not rank order;
/// the caller canonicalises each stage's pairs once.
fn emit(plan: &PlanNode, stages: &mut [Vec<(u32, u32)>], offset: usize) {
    let child_span = plan.children.iter().map(|c| c.len).max().unwrap_or(0);
    for c in &plan.children {
        emit(c, stages, offset);
    }
    for (k, local) in plan.local_stages.iter().enumerate() {
        local.embed_into(&plan.participants, &mut stages[offset + child_span + k]);
    }
}

/// Flattens the plan into the per-level choice list, children before
/// their parent — the traversal order the composer has always reported.
fn collect_choices(plan: PlanNode, depth: usize, out: &mut Vec<LevelChoice>) {
    for c in plan.children {
        collect_choices(c, depth + 1, out);
    }
    if let Some((algorithm, score)) = plan.choice {
        out.push(LevelChoice {
            participants: plan.participants,
            depth,
            algorithm,
            score,
        });
    }
}

/// Greedy candidate selection for one cluster level: lowest arrival-phase
/// critical path, doubled to approximate the departure except for fully
/// synchronizing algorithms at the root.
fn select_algorithm<C: CostProvider + ?Sized>(
    participants: &[usize],
    is_root: bool,
    cost: &C,
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
) -> (Algorithm, f64) {
    debug_assert!(
        participants.windows(2).all(|w| w[0] < w[1]),
        "level participants {participants:?} are not ascending"
    );
    let members_hash = member_set_hash(participants);
    let mut best: Option<(Algorithm, f64)> = None;
    for &alg in &cfg.candidates {
        if !alg.applicable(participants.len()) {
            continue;
        }
        let key = ScoreKey {
            members_hash,
            members_len: participants.len(),
            algorithm: alg,
            is_root,
            exact: cfg.score_exact,
        };
        let score = match eval.cached_score(&key) {
            Some(hit) => hit,
            None => {
                let fresh = score_candidate(alg, participants, is_root, cost, cfg, eval);
                eval.store_score(key, fresh);
                fresh
            }
        };
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((alg, score));
        }
    }
    best.unwrap_or_else(|| {
        panic!(
            "no applicable candidate for a cluster of {} participants",
            participants.len()
        )
    })
}

/// Prices one candidate algorithm for one cluster level, in the
/// participants' own index space: the candidate's `m`-rank local stages
/// (`Algorithm::arrival_local`) are priced through the participant view,
/// local rank `a` reading `cost`'s rank `participants[a]`.
///
/// Ranks outside the cluster neither send nor receive in a candidate's
/// stages — their `ready` stays at the zero time origin, which positive
/// signal costs can never undercut — so embedding the candidate over all
/// `n` ranks would only pad the prediction's max/fold with zeros. The
/// participants are ascending, so local index order is global rank
/// order: every sum, max and tie-break runs over the same values in the
/// same sequence, and the score is *bit-identical* to the embedded
/// prediction (`view_scores_match_embedded_predictions`) at O(m) per
/// stage instead of O(n), and without copying the participants' costs.
fn score_candidate<C: CostProvider + ?Sized>(
    alg: Algorithm,
    participants: &[usize],
    is_root: bool,
    cost: &C,
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
) -> f64 {
    let m = participants.len();
    let mut sched = BarrierSchedule::from_arrival_matrices(m, alg.arrival_local(m));
    // Fully synchronizing algorithms at the root need no departure; every
    // other level pays the transposed one in the composed hierarchy — even
    // dissemination (paper §VII-B).
    let skip_departure = is_root && !alg.needs_departure();
    if cfg.score_exact {
        // Extension: predict the full local schedule, with the real
        // Eq. 2 departure.
        if !skip_departure {
            sched.append(sched.departure_reversed(0));
        }
        eval.participant_cost(&sched, cost, participants)
    } else {
        // The paper's rule: arrival critical path × 2, except × 1 for
        // dissemination-class algorithms at the root.
        let multiplier = if skip_departure { 1.0 } else { 2.0 };
        eval.participant_cost(&sched, cost, participants) * multiplier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use hbar_matrix::DenseMatrix;
    use hbar_topo::cost::CostMatrices;
    use hbar_topo::machine::MachineSpec;
    use hbar_topo::mapping::RankMapping;
    use hbar_topo::profile::TopologyProfile;
    use proptest::prelude::*;

    fn profile(machine: &MachineSpec, mapping: &RankMapping, p: usize) -> TopologyProfile {
        TopologyProfile::from_ground_truth_for(machine, mapping, p)
    }

    fn barrier_cost(schedule: &BarrierSchedule, cost: &CostMatrices) -> f64 {
        CostEvaluator::new(CostParams::default()).barrier_cost(schedule, cost, None)
    }

    /// Tunes over every rank of `prof`.
    fn tune_hybrid(prof: &TopologyProfile, cfg: &TunerConfig) -> TunedBarrier {
        let members: Vec<usize> = (0..prof.p).collect();
        tune_hybrid_costs(&prof.cost, &members, cfg)
    }

    #[test]
    fn tuned_barrier_verifies_on_cluster_a_sizes() {
        for p in [2usize, 5, 8, 9, 16, 22, 32, 40, 64] {
            let nodes = p.div_ceil(8).max(1);
            let machine = MachineSpec::dual_quad_cluster(nodes.min(8));
            let prof = profile(&machine, &RankMapping::RoundRobin, p);
            let tuned = tune_hybrid(&prof, &TunerConfig::default());
            assert!(verify::is_barrier(&tuned.schedule), "p={p}");
        }
    }

    #[test]
    fn root_prefers_dissemination_on_uniform_top_links() {
        // "The generated hybrid algorithms favor applying the dissemination
        // barrier to top-level uniform collections of high-latency links."
        let machine = MachineSpec::dual_quad_cluster(8);
        let prof = profile(&machine, &RankMapping::RoundRobin, 64);
        let tuned = tune_hybrid(&prof, &TunerConfig::default());
        assert_eq!(tuned.root_algorithm(), Some(Algorithm::Dissemination));
    }

    #[test]
    fn hybrid_beats_topology_neutral_tree() {
        let machine = MachineSpec::dual_quad_cluster(8);
        let prof = profile(&machine, &RankMapping::RoundRobin, 64);
        let cfg = TunerConfig::default();
        let tuned = tune_hybrid(&prof, &cfg);
        let members: Vec<usize> = (0..64).collect();
        let neutral = Algorithm::Tree.full_schedule(64, &members);
        let neutral_cost = barrier_cost(&neutral, &prof.cost);
        assert!(
            tuned.predicted_cost < neutral_cost,
            "hybrid {} !< neutral tree {}",
            tuned.predicted_cost,
            neutral_cost
        );
    }

    #[test]
    fn single_rank_tunes_to_empty_schedule() {
        let machine = MachineSpec::new(1, 1, 2);
        let prof = profile(&machine, &RankMapping::Block, 2);
        let tuned = tune_hybrid_costs(&prof.cost, &[1], &TunerConfig::default());
        assert_eq!(tuned.schedule.total_signals(), 0);
        assert_eq!(tuned.predicted_cost, 0.0);
        assert!(tuned.choices.is_empty());
    }

    #[test]
    fn two_ranks_single_exchange() {
        let machine = MachineSpec::new(1, 1, 2);
        let prof = profile(&machine, &RankMapping::Block, 2);
        let tuned = tune_hybrid(&prof, &TunerConfig::default());
        assert!(verify::is_barrier(&tuned.schedule));
        // Dissemination over 2 ranks: one stage, two signals — the minimum.
        assert_eq!(tuned.root_algorithm(), Some(Algorithm::Dissemination));
        assert_eq!(tuned.schedule.total_signals(), 2);
    }

    #[test]
    fn choices_cover_every_multi_member_cluster() {
        let machine = MachineSpec::dual_quad_cluster(3);
        let prof = profile(&machine, &RankMapping::RoundRobin, 22);
        let tuned = tune_hybrid(&prof, &TunerConfig::default());
        // Root choice present.
        assert!(tuned.choices.iter().any(|c| c.depth == 0));
        // All scores positive and participants at least pairs.
        for c in &tuned.choices {
            assert!(c.score > 0.0);
            assert!(c.participants.len() >= 2);
        }
    }

    #[test]
    fn forced_single_algorithm_configuration() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let prof = profile(&machine, &RankMapping::RoundRobin, 16);
        let tuned = tune_hybrid(&prof, &TunerConfig::forced(Algorithm::Tree));
        assert!(verify::is_barrier(&tuned.schedule));
        assert!(tuned.choices.iter().all(|c| c.algorithm == Algorithm::Tree));
    }

    #[test]
    fn extended_candidates_never_worse_per_level_score() {
        // Clustering does not depend on the candidate set, so both runs
        // choose over identical participant sets per level — and a
        // minimum over a superset of candidates cannot exceed the
        // minimum over the subset. (The *full-schedule* prediction is
        // not monotone: the greedy score is the paper's arrival-×2
        // approximation, not the composed cost.)
        let machine = MachineSpec::dual_hex_cluster(5);
        let prof = profile(&machine, &RankMapping::RoundRobin, 60);
        let base = tune_hybrid(&prof, &TunerConfig::default());
        let ext = tune_hybrid(&prof, &TunerConfig::extended());
        assert!(verify::is_barrier(&ext.schedule));
        assert_eq!(base.choices.len(), ext.choices.len());
        for (b, e) in base.choices.iter().zip(&ext.choices) {
            assert_eq!(b.participants, e.participants);
            assert!(
                e.score <= b.score * 1.0001,
                "level {:?}: extended score {} > paper score {}",
                b.participants,
                e.score,
                b.score
            );
        }
    }

    #[test]
    fn tunes_from_raw_costs_on_non_hierarchical_topology() {
        // A ring of 12 ranks: cost grows with ring distance — no cluster
        // hierarchy at all. `tune_hybrid_costs` needs no machine
        // metadata and must still emit a valid, predicted barrier.
        let p = 12;
        let ring_dist = |i: usize, j: usize| {
            let d = i.abs_diff(j);
            d.min(p - d) as f64
        };
        let cost = CostMatrices {
            o: DenseMatrix::from_fn(p, |i, j| {
                if i == j {
                    1e-7
                } else {
                    1e-6 * (1.0 + ring_dist(i, j))
                }
            }),
            l: DenseMatrix::from_fn(p, |i, j| {
                if i == j {
                    0.0
                } else {
                    1e-7 * (1.0 + ring_dist(i, j))
                }
            }),
        };
        let members: Vec<usize> = (0..p).collect();
        let tuned = tune_hybrid_costs(&cost, &members, &TunerConfig::default());
        assert!(verify::is_barrier(&tuned.schedule));
        assert!(tuned.predicted_cost > 0.0);
        // The ring's smooth distance gradient clusters into contiguous
        // arcs (or not at all); either way every choice is scored.
        for c in &tuned.choices {
            assert!(c.score > 0.0);
        }
    }

    #[test]
    fn asymmetric_links_are_supported() {
        // The paper assumes O_ij = O_ji only to simplify benchmarking and
        // notes "extending the cost matrices to cover asymmetric links is
        // trivial". The tuner symmetrizes distances for SSS clustering
        // but costs candidates with the true asymmetric values.
        let machine = MachineSpec::dual_quad_cluster(2);
        let mut prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
        // Make sends *from* even ranks 2x slower (e.g. asymmetric NIC).
        for i in (0..prof.p).step_by(2) {
            for j in 0..prof.p {
                if i != j {
                    prof.cost.o[(i, j)] *= 2.0;
                    prof.cost.l[(i, j)] *= 2.0;
                }
            }
        }
        assert!(!prof.cost.o.is_symmetric());
        let tuned = tune_hybrid(&prof, &TunerConfig::default());
        assert!(verify::is_barrier(&tuned.schedule));
        // The prediction must actually use the asymmetric values: making
        // odd-rank sends slower instead changes the predicted cost.
        let mut flipped = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
        for i in (1..flipped.p).step_by(2) {
            for j in 0..flipped.p {
                if i != j {
                    flipped.cost.o[(i, j)] *= 2.0;
                    flipped.cost.l[(i, j)] *= 2.0;
                }
            }
        }
        let tuned_flipped = tune_hybrid(&flipped, &TunerConfig::default());
        let a = barrier_cost(&tuned.schedule, &prof.cost);
        let b = barrier_cost(&tuned.schedule, &flipped.cost);
        assert_ne!(a, b, "asymmetry must matter");
        assert!(verify::is_barrier(&tuned_flipped.schedule));
    }

    #[test]
    fn exact_scoring_never_predicts_worse_than_paper_rule() {
        // The exact score evaluates the real composed cost of each local
        // choice, so the final full-schedule prediction can only improve
        // (or tie) relative to the ×2 approximation.
        for machine in [
            MachineSpec::dual_quad_cluster(8),
            MachineSpec::dual_hex_cluster(10),
        ] {
            let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
            let paper = tune_hybrid(&prof, &TunerConfig::default());
            let exact = tune_hybrid(
                &prof,
                &TunerConfig {
                    score_exact: true,
                    ..TunerConfig::default()
                },
            );
            assert!(verify::is_barrier(&exact.schedule));
            assert!(
                exact.predicted_cost <= paper.predicted_cost * 1.0001,
                "{}: exact {} vs paper-rule {}",
                machine.name,
                exact.predicted_cost,
                paper.predicted_cost
            );
        }
    }

    #[test]
    fn subset_tuning_synchronizes_only_members() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let prof = profile(&machine, &RankMapping::Block, 16);
        let members = vec![0, 2, 8, 10, 12];
        let tuned = tune_hybrid_costs(&prof.cost, &members, &TunerConfig::default());
        assert!(verify::synchronizes_subset(&tuned.schedule, &members));
        assert!(!verify::is_barrier(&tuned.schedule));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// What keeps the participant view honest: for any ascending
        /// participant set — non-consecutive, singleton, root or not, under
        /// both scorers — pricing a candidate through the view is
        /// bit-equal to predicting the same candidate embedded over all `n`
        /// ranks with `CostEvaluator::predict`. The costs are
        /// skewed per ordered pair, so a read through the wrong rank or the
        /// wrong orientation shows.
        #[test]
        fn view_scores_match_embedded_predictions(
            p in 2usize..=48,
            keep in prop::collection::vec(any::<bool>(), 48),
            round_robin in any::<bool>(),
            skew in any::<u64>(),
        ) {
            let machine = MachineSpec::dual_hex_cluster(p.div_ceil(12));
            let mapping = if round_robin { RankMapping::RoundRobin } else { RankMapping::Block };
            let mut cost = profile(&machine, &mapping, p).cost;
            for i in 0..p {
                for j in 0..p {
                    let f = 1.0 + crate::clustering::splitmix64(skew ^ (i * 64 + j) as u64) as f64
                        / u64::MAX as f64;
                    cost.o[(i, j)] *= f;
                    cost.l[(i, j)] *= f;
                }
            }
            let mut participants: Vec<usize> = (0..p).filter(|&r| keep[r]).collect();
            if participants.is_empty() {
                participants.push(skew as usize % p);
            }
            let m = participants.len();
            for score_exact in [false, true] {
                let cfg = TunerConfig { score_exact, ..TunerConfig::extended() };
                let mut eval = CostEvaluator::new(cfg.cost_params);
                for &alg in cfg.candidates.iter().filter(|a| a.applicable(m)) {
                    for is_root in [false, true] {
                        let view = score_candidate(alg, &participants, is_root, &cost, &cfg, &mut eval);
                        let arrival = alg.arrival_embedded(p, &participants);
                        let mut sched = BarrierSchedule::from_arrival_matrices(p, arrival);
                        let skip = is_root && !alg.needs_departure();
                        if score_exact && !skip {
                            sched.append(sched.departure_reversed(0));
                        }
                        let embedded = CostEvaluator::new(cfg.cost_params)
                            .predict(&sched, &cost, None)
                            .barrier_cost;
                        let embedded = if !score_exact && !skip { embedded * 2.0 } else { embedded };
                        prop_assert_eq!(
                            view.to_bits(),
                            embedded.to_bits(),
                            "{:?} over {:?} root={} exact={}: view {} vs embedded {}",
                            alg, &participants, is_root, score_exact, view, embedded
                        );
                    }
                }
            }
        }
    }

    /// Tunes `members` over a 16-rank profile.
    fn tune_members(members: &[usize]) -> TunedBarrier {
        let machine = MachineSpec::dual_quad_cluster(2);
        let prof = profile(&machine, &RankMapping::Block, 16);
        tune_hybrid_costs(&prof.cost, members, &TunerConfig::default())
    }

    #[test]
    #[should_panic(expected = "strictly ascending: position 2 holds 1 after 1")]
    fn duplicate_member_panics_at_the_entry() {
        tune_members(&[0, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending: position 1 holds 2 after 5")]
    fn unsorted_members_panic_at_the_entry() {
        tune_members(&[5, 2, 9, 2, 12]);
    }

    #[test]
    #[should_panic(expected = "member 16 at position 3 is out of range for 16 ranks")]
    fn out_of_range_member_panics_at_the_entry() {
        tune_members(&[0, 4, 15, 16, 17]);
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn empty_members_panics() {
        let machine = MachineSpec::new(1, 1, 2);
        let prof = profile(&machine, &RankMapping::Block, 2);
        tune_hybrid_costs(&prof.cost, &[], &TunerConfig::default());
    }
}
