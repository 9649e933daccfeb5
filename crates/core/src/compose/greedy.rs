//! The greedy tuner implementation.

use crate::algorithms::Algorithm;
use crate::clustering::{ClusterNode, SSS_DEFAULT_SPARSENESS};
use crate::cost::{member_set_hash, CostEvaluator, CostParams, ScoreKey};
use crate::schedule::{BarrierSchedule, Stage};
use hbar_matrix::SparseBoolMatrix;
use hbar_topo::cost::{CostMatrices, CostProvider};
use hbar_topo::profile::TopologyProfile;

/// Configuration of the adaptive tuner.
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// SSS sparseness as a fraction of the clustered set's diameter
    /// (paper: 0.35).
    pub sparseness: f64,
    /// Candidate component algorithms (paper: linear, dissemination, tree).
    pub candidates: Vec<Algorithm>,
    /// Cost-model options used for candidate selection and the final
    /// prediction.
    pub cost_params: CostParams,
    /// Maximum cluster-tree depth.
    pub max_depth: usize,
    /// Disable the "as early as possible" merge: align concurrent local
    /// barriers at their *last* stage instead. Only used by the ablation
    /// benchmarks; the paper's construction merges early.
    pub merge_late: bool,
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
            merge_late: false,
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
    /// The score it was selected on: arrival-phase critical path × 2
    /// (× 1 for dissemination/butterfly at the root).
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

/// Tunes a hybrid barrier for all ranks of a profile.
pub fn tune_hybrid(profile: &TopologyProfile, cfg: &TunerConfig) -> TunedBarrier {
    let members: Vec<usize> = (0..profile.p).collect();
    tune_hybrid_for(profile, &members, cfg)
}

/// Tunes a hybrid barrier for a subset of a profile's ranks.
pub fn tune_hybrid_for(
    profile: &TopologyProfile,
    members: &[usize],
    cfg: &TunerConfig,
) -> TunedBarrier {
    tune_hybrid_costs(&profile.cost, members, cfg)
}

/// Tunes a hybrid barrier directly from a cost model, with no machine
/// metadata required. This is the entry point for platforms beyond the
/// hierarchical clusters the paper evaluates (its §VIII generalization):
/// any cost model whose symmetrization is a metric drives the SSS
/// clustering and the greedy composition identically. Generic over the
/// [`CostProvider`] backing — dense [`CostMatrices`] and the
/// class-compressed model tune bit-identically when their entries are
/// bit-equal.
///
/// # Panics
/// Panics if `members` is empty, if no candidate algorithm is applicable
/// to some cluster size, or if composition produces an invalid barrier
/// (which would be a bug — the construction is verified with Eq. 3).
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
/// per-cluster scores. The evaluator's [`CostParams`] must match
/// `cfg.cost_params`; the memo would otherwise mix models.
///
/// # Panics
/// As [`tune_hybrid_costs`], plus if the evaluator's params differ from
/// the configuration's.
pub fn tune_hybrid_costs_with<C: CostProvider + ?Sized>(
    cost: &C,
    members: &[usize],
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
) -> TunedBarrier {
    assert!(!members.is_empty(), "cannot tune a barrier for zero ranks");
    assert!(
        !cfg.candidates.is_empty(),
        "need at least one candidate algorithm"
    );
    assert_eq!(
        *eval.params(),
        cfg.cost_params,
        "evaluator and tuner disagree on cost-model params"
    );
    eval.rebind(cost);
    let tree = eval.cluster_tree(cost, members, cfg.sparseness, cfg.max_depth);
    let n = cost.p();
    let plan = plan_node(&tree, 0, cost, cfg, eval);
    let root_level = plan.choice.map(|(algorithm, _)| RootLevel {
        algorithm,
        stage_count: plan.local_stages.len(),
    });
    let mut signals = vec![Vec::new(); plan.len];
    emit(&plan, &mut signals, 0, cfg.merge_late);
    let mut schedule = BarrierSchedule::new(n);
    for pairs in signals {
        schedule.push(Stage::arrival(SparseBoolMatrix::from_pairs(n, pairs)));
    }
    let mut choices = Vec::new();
    collect_choices(plan, 0, &mut choices);

    let skip = match &root_level {
        Some(level) if !level.algorithm.needs_departure() => level.stage_count,
        _ => 0,
    };
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

/// What the root level of the recursion contributed.
struct RootLevel {
    algorithm: Algorithm,
    stage_count: usize,
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
/// per stage, starting at stage `offset`: children merge concurrently —
/// aligned at their first stage, or at their last for the merge-late
/// ablation — and the node's own level follows the deepest child
/// (§VII-B's "merge shorter sequences with longer ones as early as
/// possible"). Clusters arrive in tree order, not rank order; the caller
/// canonicalises each stage's pairs once.
fn emit(plan: &PlanNode, stages: &mut [Vec<(u32, u32)>], offset: usize, merge_late: bool) {
    let child_span = plan.children.iter().map(|c| c.len).max().unwrap_or(0);
    for c in &plan.children {
        let off = if merge_late {
            offset + (child_span - c.len)
        } else {
            offset
        };
        emit(c, stages, off, merge_late);
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
    let members_hash = member_set_hash(participants);
    // Extracted lazily on the first memo miss, shared by all candidates.
    let subspace_ok = is_ascending(participants);
    let mut local: Option<CostMatrices> = None;
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
                if subspace_ok && local.is_none() {
                    local = Some(local_costs(cost, participants));
                }
                let fresh =
                    score_candidate(alg, participants, is_root, cost, local.as_ref(), cfg, eval);
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

/// True when `ranks` is strictly ascending — the order the composer
/// always produces (clusters keep the input scan order, and the tuner's
/// public entry points receive ascending member lists).
fn is_ascending(ranks: &[usize]) -> bool {
    ranks.windows(2).all(|w| w[0] < w[1])
}

/// The participants' pairwise costs re-indexed into the local `0..m`
/// space that `Algorithm::arrival_local` generates over. Delegates to
/// the provider (same `from_fn` fill order as the pre-provider code, so
/// dense extraction is bit-identical).
fn local_costs<C: CostProvider + ?Sized>(cost: &C, participants: &[usize]) -> CostMatrices {
    cost.local_costs(participants)
}

/// Prices one candidate algorithm for one cluster level.
///
/// When `local` is given (the [`local_costs`] submatrix, available
/// whenever the participants are in ascending rank order), the candidate
/// is predicted in the participants-only subspace: an `m`-rank schedule
/// against the `m × m` cost slice. Ranks outside the cluster neither
/// send nor receive in a candidate's stages — their `ready` stays at the
/// zero time origin, which positive signal costs can never undercut —
/// so they only pad the embedded prediction's max/fold with zeros.
/// Ascending participants make local index order coincide with global
/// rank order, hence every sum, max and tie-break runs over the same
/// values in the same sequence and the local score is *bit-identical*
/// to the embedded one. It is also what makes tuning at P ≥ 1024
/// tractable: scoring drops from O(levels · candidates · n²) to
/// O(levels · candidates · m²) with m = cluster size.
fn score_candidate<C: CostProvider + ?Sized>(
    alg: Algorithm,
    participants: &[usize],
    is_root: bool,
    cost: &C,
    local: Option<&CostMatrices>,
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
) -> f64 {
    // The two arms price against differently typed backings (the dense
    // submatrix vs whatever `cost` is), so the shared scoring logic is
    // the generic helper below rather than one tuple match.
    match local {
        Some(sub) => {
            let w = participants.len();
            score_schedule(alg, w, alg.arrival_local(w), is_root, sub, cfg, eval)
        }
        None => {
            let w = cost.p();
            let arrival = alg.arrival_embedded(w, participants);
            score_schedule(alg, w, arrival, is_root, cost, cfg, eval)
        }
    }
}

/// Prices one candidate's arrival stages against one cost backing.
fn score_schedule<C: CostProvider + ?Sized>(
    alg: Algorithm,
    w: usize,
    arrival: Vec<SparseBoolMatrix>,
    is_root: bool,
    cmat: &C,
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
) -> f64 {
    if cfg.score_exact {
        // Extension: predict the full local schedule, with the real
        // Eq. 2 departure (omitted entirely for fully synchronizing
        // algorithms at the root).
        let mut sched = BarrierSchedule::from_arrival_matrices(w, arrival);
        // Non-root levels always pay the transposed departure in the
        // composed hierarchy — even dissemination (paper §VII-B).
        let skip_departure = is_root && !alg.needs_departure();
        if !skip_departure {
            sched.append(sched.departure_reversed(0));
        }
        eval.barrier_cost(&sched, cmat, None)
    } else {
        // The paper's rule: arrival critical path × 2, except ×1 for
        // dissemination-class algorithms at the root.
        let sched = BarrierSchedule::from_arrival_matrices(w, arrival);
        let base = eval.barrier_cost(&sched, cmat, None);
        let multiplier = if is_root && !alg.needs_departure() {
            1.0
        } else {
            2.0
        };
        base * multiplier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::predict_barrier_cost;
    use crate::verify;
    use hbar_matrix::DenseMatrix;
    use hbar_topo::machine::MachineSpec;
    use hbar_topo::mapping::RankMapping;

    fn profile(machine: &MachineSpec, mapping: &RankMapping, p: usize) -> TopologyProfile {
        TopologyProfile::from_ground_truth_for(machine, mapping, p)
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
        let neutral_cost =
            predict_barrier_cost(&neutral, &prof.cost, &cfg.cost_params, None).barrier_cost;
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
        let tuned = tune_hybrid_for(&prof, &[1], &TunerConfig::default());
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
    fn merge_late_ablation_still_valid_but_not_better() {
        let machine = MachineSpec::dual_quad_cluster(3);
        let prof = profile(&machine, &RankMapping::RoundRobin, 22);
        let early = tune_hybrid(&prof, &TunerConfig::default());
        let late = tune_hybrid(
            &prof,
            &TunerConfig {
                merge_late: true,
                ..TunerConfig::default()
            },
        );
        assert!(verify::is_barrier(&late.schedule));
        assert!(early.predicted_cost <= late.predicted_cost * 1.0001);
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
        let a = predict_barrier_cost(&tuned.schedule, &prof.cost, &CostParams::default(), None);
        let b = predict_barrier_cost(&tuned.schedule, &flipped.cost, &CostParams::default(), None);
        assert_ne!(a.barrier_cost, b.barrier_cost, "asymmetry must matter");
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
        let tuned = tune_hybrid_for(&prof, &members, &TunerConfig::default());
        assert!(verify::synchronizes_subset(&tuned.schedule, &members));
        assert!(!verify::is_barrier(&tuned.schedule));
    }

    #[test]
    fn local_subspace_scores_match_embedded_scores() {
        // The guard behind the P >= 1024 scoring fast path: pricing a
        // candidate in the participants-only subspace must be
        // bit-identical to pricing it embedded in the full rank space.
        let machine = MachineSpec::dual_quad_cluster(2);
        let prof = profile(&machine, &RankMapping::Block, 16);
        let participants = vec![1, 3, 5, 9, 11, 13];
        assert!(is_ascending(&participants));
        let local = local_costs(&prof.cost, &participants);
        for exact in [false, true] {
            let cfg = TunerConfig {
                score_exact: exact,
                ..TunerConfig::default()
            };
            let mut eval = CostEvaluator::new(cfg.cost_params);
            eval.rebind(&prof.cost);
            for &alg in &cfg.candidates {
                if !alg.applicable(participants.len()) {
                    continue;
                }
                for is_root in [false, true] {
                    let fast = score_candidate(
                        alg,
                        &participants,
                        is_root,
                        &prof.cost,
                        Some(&local),
                        &cfg,
                        &mut eval,
                    );
                    let slow = score_candidate(
                        alg,
                        &participants,
                        is_root,
                        &prof.cost,
                        None,
                        &cfg,
                        &mut eval,
                    );
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "{alg:?} is_root={is_root} exact={exact}: local {fast} vs embedded {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn unsorted_members_use_fallback_and_stay_deterministic() {
        // A non-ascending member list disables the subspace fast path;
        // the embedded fallback must still tune a valid subset barrier,
        // and reusing a warm evaluator must not change the result.
        let machine = MachineSpec::dual_quad_cluster(2);
        let prof = profile(&machine, &RankMapping::Block, 16);
        let shuffled = vec![13, 1, 9, 5, 3, 11];
        let cfg = TunerConfig::default();
        let cold = tune_hybrid_costs(&prof.cost, &shuffled, &cfg);
        assert!(verify::synchronizes_subset(&cold.schedule, &shuffled));
        let mut eval = CostEvaluator::new(cfg.cost_params);
        let first = tune_hybrid_costs_with(&prof.cost, &shuffled, &cfg, &mut eval);
        let warm = tune_hybrid_costs_with(&prof.cost, &shuffled, &cfg, &mut eval);
        assert_eq!(cold.schedule.stages(), first.schedule.stages());
        assert_eq!(first.schedule.stages(), warm.schedule.stages());
        assert_eq!(cold.predicted_cost.to_bits(), warm.predicted_cost.to_bits());
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn empty_members_panics() {
        let machine = MachineSpec::new(1, 1, 2);
        let prof = profile(&machine, &RankMapping::Block, 2);
        tune_hybrid_for(&prof, &[], &TunerConfig::default());
    }
}
