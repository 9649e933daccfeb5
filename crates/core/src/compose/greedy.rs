//! The greedy tuner implementation.

use crate::algorithms::{dissemination_radices, Algorithm};
use crate::clustering::{ClusterNode, SSS_DEFAULT_SPARSENESS};
use crate::cost::{member_set_hash, CostEvaluator, CostParams, ScoreKey};
use crate::schedule::{BarrierSchedule, Stage};
use hbar_matrix::SparseBoolMatrix;
use hbar_topo::cost::CostProvider;
use std::collections::HashMap;

/// Configuration of the adaptive tuner. Scoring has no switch: a
/// candidate is priced by its full local schedule ([`LevelChoice::score`]),
/// and a root candidate by the whole barrier it completes.
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// SSS sparseness as a fraction of the clustered set's diameter
    /// (paper: 0.35).
    pub sparseness: f64,
    /// Candidate component algorithms (paper: linear, dissemination,
    /// tree), each standing for what [`level_candidates`] expands it to.
    pub candidates: Vec<Algorithm>,
    /// Field-less: the cost model has no options (see [`CostParams`]);
    /// kept because the pipeline benchmark names it.
    pub cost_params: CostParams,
    /// Maximum cluster-tree depth.
    pub max_depth: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            sparseness: SSS_DEFAULT_SPARSENESS,
            candidates: Algorithm::PAPER_SET.to_vec(),
            cost_params: CostParams::default(),
            max_depth: 8,
        }
    }
}

impl TunerConfig {
    /// The paper's tuner: its three building blocks with dissemination
    /// fixed at radix 2.
    pub fn paper() -> Self {
        TunerConfig {
            candidates: vec![Algorithm::Linear, Algorithm::NWay(2), Algorithm::Tree],
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
    /// The selected algorithm: greedily by [`Self::score`] below the
    /// root; at the root, in context, by the predicted cost of the whole
    /// barrier it completes ([`TunedBarrier::predicted_cost`]).
    pub algorithm: Algorithm,
    /// The algorithm's local price: the predicted critical path of its
    /// full local schedule over the participants — its arrival stages,
    /// then their transposed Eq. 2 departure unless a fully synchronizing
    /// algorithm sits at the root. Below the root it is what the
    /// algorithm was selected on; at the root it stays the local price,
    /// while the choice was made in context.
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
    /// Predicted critical-path cost of the full schedule (seconds): the
    /// price the root was chosen on, bit-equal to
    /// [`CostEvaluator::barrier_cost`] of `schedule`.
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
    // A fresh evaluator's memo is empty and dropped on return, so it is
    // not bound: a fingerprint would hash every entry for a memo that no
    // later tune looks up.
    tune(cost, members, cfg, &mut CostEvaluator::new(cfg.cost_params))
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
    eval.rebind(cost);
    tune(cost, members, cfg, eval)
}

/// The tune itself, over an evaluator whose memo holds only what `cost`
/// scored: one [`CostEvaluator::rebind`]-ed to it, or a fresh one.
fn tune<C: CostProvider + ?Sized>(
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
    let tree = eval.cluster_tree(cost, members, cfg.sparseness, cfg.max_depth);
    let n = cost.p();
    let mut local = std::mem::take(&mut eval.local_schedules);
    let children: Vec<PlanNode> = (tree.children.iter())
        .map(|c| plan_node(c, cost, cfg, eval, &mut local))
        .collect();
    // The children's arrival, composed once: the root is priced after it
    // and before its transposed departure, and the schedule is built from
    // both.
    let mut signals = vec![Vec::new(); span(&children)];
    for c in &children {
        emit(c, &mut local, &mut signals);
    }
    let mut schedule = BarrierSchedule::new(n);
    for pairs in signals {
        schedule.push(Stage::arrival(SparseBoolMatrix::from_pairs(n, pairs)));
    }
    let departure = schedule.departure_reversed(0);
    let participants = level_participants(&tree);
    let (choice, predicted_cost) = choose_root(
        &participants,
        &schedule,
        &departure,
        cost,
        cfg,
        eval,
        &mut local,
    );
    if let Some((algorithm, _)) = choice {
        // A fully synchronizing root's own stages need no departure.
        let own = local.get(algorithm, participants.len(), !algorithm.needs_departure());
        for stage in own.stages() {
            let mut pairs = Vec::new();
            stage.matrix.embed_into(&participants, &mut pairs);
            schedule.push(Stage {
                matrix: SparseBoolMatrix::from_pairs(n, pairs),
                mode: stage.mode,
            });
        }
    }
    schedule.append(departure);
    schedule.strip_noop_stages();
    local.keep_used();
    eval.local_schedules = local;
    let mut choices = Vec::new();
    for c in children {
        collect_choices(c, 1, &mut choices);
    }
    if let Some((algorithm, score)) = choice {
        choices.push(LevelChoice {
            participants,
            depth: 0,
            algorithm,
            score,
        });
    }

    debug_assert!(
        eval.synchronizes_subset(&schedule, members),
        "composed schedule fails verification:\n{schedule}"
    );
    debug_assert_eq!(
        predicted_cost.to_bits(),
        eval.barrier_cost(&schedule, cost, None).to_bits(),
        "the root's price is not the composed schedule's"
    );
    TunedBarrier {
        schedule,
        tree,
        choices,
        predicted_cost,
    }
}

/// Candidate schedules over local ranks `0..m`, keyed by `(algorithm, m,
/// skip_departure)` and built once however many levels score them. They
/// depend on no cost, so the evaluator keeps those the last tune used: a
/// loop over one fleet shape builds none after its first tune.
#[derive(Clone, Debug, Default)]
pub(crate) struct LocalSchedules(HashMap<(Algorithm, usize, bool), (BarrierSchedule, bool)>);

impl LocalSchedules {
    /// `alg`'s schedule over local ranks `0..m`: its arrival stages, then —
    /// unless `skip_departure` — as many transposed departure stages.
    fn get(&mut self, alg: Algorithm, m: usize, skip_departure: bool) -> &BarrierSchedule {
        let (sched, used) = self.0.entry((alg, m, skip_departure)).or_insert_with(|| {
            let mut sched = BarrierSchedule::from_arrival_matrices(m, alg.arrival_local(m));
            if !skip_departure {
                sched.append(sched.departure_reversed(0));
            }
            (sched, false)
        });
        *used = true;
        sched
    }

    /// Ends a tune: drops the schedules it did not use.
    fn keep_used(&mut self) {
        self.0.retain(|_, (_, used)| std::mem::take(used));
    }
}

/// One planned level below the root: the algorithm is selected and its
/// local schedule built, but nothing is mapped into the global rank space
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
    /// The selection's arrival stages: the first half of its
    /// [`LocalSchedules`] entry.
    own_stages: usize,
    /// Child plans, in cluster order.
    children: Vec<PlanNode>,
    /// Arrival stages this subtree spans: the deepest child span plus
    /// this level's own stages.
    len: usize,
}

/// Arrival stages a level's children span: the deepest child's.
fn span(children: &[PlanNode]) -> usize {
    children.iter().map(|c| c.len).max().unwrap_or(0)
}

/// A level's participants: a leaf's members, or the representatives of
/// its children.
fn level_participants(node: &ClusterNode) -> Vec<usize> {
    if node.is_leaf() {
        node.members.clone()
    } else {
        (node.children.iter())
            .map(ClusterNode::representative)
            .collect()
    }
}

/// Recursively selects algorithms for the subtree of `node`, a level
/// below the root: each by the price of its full local schedule.
fn plan_node<C: CostProvider + ?Sized>(
    node: &ClusterNode,
    cost: &C,
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
    local: &mut LocalSchedules,
) -> PlanNode {
    let children: Vec<PlanNode> = (node.children.iter())
        .map(|c| plan_node(c, cost, cfg, eval, local))
        .collect();
    let participants = level_participants(node);
    let child_span = span(&children);
    if participants.len() < 2 {
        // A singleton level contributes no signals.
        return PlanNode {
            participants: Vec::new(),
            choice: None,
            own_stages: 0,
            children,
            len: child_span,
        };
    }
    let (algorithm, score) = greedy(&score_level(&participants, false, cost, cfg, eval, local));
    let own_stages = local.get(algorithm, participants.len(), false).len() / 2;
    PlanNode {
        participants,
        choice: Some((algorithm, score)),
        own_stages,
        children,
        len: child_span + own_stages,
    }
}

/// Chooses the root's algorithm by the price of the whole barrier it
/// completes, and returns it with its local score, plus that price.
///
/// The children's `arrival` runs once; each root candidate is priced from
/// the ready times it leaves — the candidate's full local schedule through
/// the participant view, then the children's transposed `departure`. That
/// is, bit for bit, the prediction of the composed schedule
/// ([`CostEvaluator::resumed_cost`]). A candidate's local score, or the
/// [`lower_bound`] that skipped it, is a floor under that price, since the
/// recurrence never moves a rank back: candidates are priced in the order
/// of their floors, the greedy selection first, until the next floor
/// reaches the cheapest price. A tie keeps the earlier candidate.
///
/// Only the root is chosen so: its price in context is the barrier's,
/// while below it the parent's choice, and so the context, is still open.
fn choose_root<C: CostProvider + ?Sized>(
    participants: &[usize],
    arrival: &BarrierSchedule,
    departure: &BarrierSchedule,
    cost: &C,
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
    local: &mut LocalSchedules,
) -> (Option<(Algorithm, f64)>, f64) {
    let ready = eval.ready_after(arrival, cost);
    let m = participants.len();
    if m < 2 {
        let nothing = BarrierSchedule::new(m);
        return (
            None,
            eval.resumed_cost(&ready, &nothing, participants, departure, cost),
        );
    }
    let mut floors = score_level(participants, true, cost, cfg, eval, local);
    floors.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut best: Option<(Algorithm, f64)> = None;
    for (alg, floor) in floors {
        if best.is_some_and(|(_, price)| floor >= price) {
            break;
        }
        let own = local.get(alg, m, !alg.needs_departure());
        let price = eval.resumed_cost(&ready, own, participants, departure, cost);
        if best.is_none_or(|(_, b)| price < b) {
            best = Some((alg, price));
        }
    }
    let (algorithm, price) = best.expect("score_level yields a candidate");
    let key = ScoreKey {
        members_hash: member_set_hash(participants),
        members_len: m,
        algorithm,
        is_root: true,
    };
    // A radix the greedy pass skipped unbuilt is scored here, outside the
    // memo, which keeps what the greedy pass scored.
    let score = (eval.cached_score(&key))
        .unwrap_or_else(|| score_candidate(algorithm, participants, true, cost, eval, local));
    (Some((algorithm, score)), price)
}

/// Collects a plan's arrival signals, as global `(sender, target)` pairs
/// per stage: children merge concurrently, aligned at the first stage,
/// and the node's own level follows the deepest child (§VII-B's "merge
/// shorter sequences with longer ones as early as possible"). Clusters
/// arrive in tree order, not rank order; the caller canonicalises each
/// stage's pairs once.
fn emit(plan: &PlanNode, local: &mut LocalSchedules, stages: &mut [Vec<(u32, u32)>]) {
    let child_span = span(&plan.children);
    for c in &plan.children {
        emit(c, local, stages);
    }
    let Some((algorithm, _)) = plan.choice else {
        return;
    };
    let own = local.get(algorithm, plan.participants.len(), false);
    for (k, stage) in own.stages()[..plan.own_stages].iter().enumerate() {
        (stage.matrix).embed_into(&plan.participants, &mut stages[child_span + k]);
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

/// What candidate `alg` stands for at a level of `m` participants, in
/// scoring order: a `Dissemination` candidate is one `NWay` radix per stage
/// count (`dissemination_radices`); radix 2 is recorded as `Dissemination`.
pub fn level_candidates(alg: Algorithm, m: usize) -> Vec<Algorithm> {
    match alg {
        _ if !alg.applicable(m) => Vec::new(),
        Algorithm::Dissemination => (dissemination_radices(m).into_iter())
            .flat_map(|w| level_candidates(Algorithm::NWay(w), m))
            .collect(),
        Algorithm::NWay(2) => vec![Algorithm::Dissemination],
        alg => vec![alg],
    }
}

/// Scores one level's candidates, in scoring order: each one's price by
/// its full local schedule, or — for a dissemination radix skipped unbuilt
/// because its [`lower_bound`] already exceeds the best price so far —
/// that bound. Each is a floor under the candidate's price in any
/// context, and the first smallest is a price: the greedy selection
/// ([`greedy`]).
fn score_level<C: CostProvider + ?Sized>(
    participants: &[usize],
    is_root: bool,
    cost: &C,
    cfg: &TunerConfig,
    eval: &mut CostEvaluator,
    local: &mut LocalSchedules,
) -> Vec<(Algorithm, f64)> {
    debug_assert!(
        participants.windows(2).all(|w| w[0] < w[1]),
        "level participants {participants:?} are not ascending"
    );
    let m = participants.len();
    let members_hash = member_set_hash(participants);
    let mut cheapest = None;
    let mut best: Option<f64> = None;
    let mut floors = Vec::new();
    for alg in (cfg.candidates.iter()).flat_map(|&c| level_candidates(c, m)) {
        let key = ScoreKey {
            members_hash,
            members_len: m,
            algorithm: alg,
            is_root,
        };
        let score = match eval.cached_score(&key) {
            Some(hit) => hit,
            None => {
                if let Some(b) = best {
                    let first =
                        *cheapest.get_or_insert_with(|| cheapest_from_first(participants, cost));
                    let bound = lower_bound(alg, m, is_root, first);
                    if bound > b {
                        floors.push((alg, bound));
                        continue;
                    }
                }
                let fresh = score_candidate(alg, participants, is_root, cost, eval, local);
                eval.store_score(key, fresh);
                fresh
            }
        };
        best = Some(best.map_or(score, |b| b.min(score)));
        floors.push((alg, score));
    }
    assert!(
        !floors.is_empty(),
        "no applicable candidate for a cluster of {m} participants"
    );
    floors
}

/// The greedy selection of [`score_level`]'s floors: the first smallest.
/// A skipped radix's bound exceeds some price, so it is never selected.
fn greedy(floors: &[(Algorithm, f64)]) -> (Algorithm, f64) {
    (floors.iter().copied())
        .reduce(|a, b| if b.1 < a.1 { b } else { a })
        .expect("score_level yields a candidate")
}

/// The level's first participant's own `O` (its departure startup), and
/// its smallest `O` and smallest `L` to the others: m − 1 pairs, not all
/// m (m − 1).
fn cheapest_from_first<C: CostProvider + ?Sized>(participants: &[usize], cost: &C) -> [f64; 3] {
    let i = participants[0];
    (participants[1..].iter()).fold(
        [cost.o_at(i, i), f64::INFINITY, f64::INFINITY],
        |[own, o, l], &j| [own, o.min(cost.o_at(i, j)), l.min(cost.l_at(i, j))],
    )
}

/// A lower bound on a dissemination radix's score over `m` participants
/// (zero for other algorithms), from `[own_o, o, l]` of
/// [`cheapest_from_first`]: Σ over its arrival stages of `o + k · l`, then
/// — below the root — Σ over the transposed departure stages, last first,
/// of `own_o + k · l`, with `k` the targets each rank has in that stage.
/// The first participant sends in every stage, and [`CostEvaluator`]'s
/// step holds a sender for at least its startup (max `O` on arrival, its
/// own `O` on departure) + Σ `L`, summed in this order, and never moves a
/// rank back: rounding cannot lift the bound above that rank's exit, so
/// not above the score.
fn lower_bound(alg: Algorithm, m: usize, is_root: bool, [own_o, o, l]: [f64; 3]) -> f64 {
    let w = match alg {
        Algorithm::Dissemination => 2,
        Algorithm::NWay(w) => w,
        _ => return 0.0,
    };
    let steps: Vec<usize> = std::iter::successors(Some(1usize), |&s| s.checked_mul(w))
        .take_while(|&s| s < m)
        .collect();
    let departure = steps.iter().rev().filter(|_| !is_root);
    (steps.iter().map(|&step| (o, step)))
        .chain(departure.map(|&step| (own_o, step)))
        .fold(0.0, |bound, (startup, step)| {
            let k = (w - 1).min((m - 1) / step);
            bound + (startup + (0..k).fold(0.0, |lat, _| lat + l))
        })
}

/// Prices one candidate algorithm for one cluster level, in the
/// participants' own index space: the candidate's `m`-rank local
/// schedule — its arrival stages, then their transposed departure — is
/// priced through the participant view, local rank `a` reading `cost`'s
/// rank `participants[a]`.
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
    eval: &mut CostEvaluator,
    local: &mut LocalSchedules,
) -> f64 {
    let m = participants.len();
    // Fully synchronizing algorithms at the root need no departure; every
    // other level pays the transposed one in the composed hierarchy — even
    // dissemination (paper §VII-B).
    let skip_departure = is_root && !alg.needs_departure();
    eval.participant_cost(local.get(alg, m, skip_departure), cost, participants)
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
        // At 32 dual quad-core nodes the top level is wide enough for the
        // paper's radix-2 dissemination under either placement; the default
        // tuner takes the 32 representatives in three 6-way stages.
        let machine = MachineSpec::new(32, 2, 4);
        for mapping in [RankMapping::Block, RankMapping::RoundRobin] {
            let prof = profile(&machine, &mapping, 256);
            for (cfg, root) in [
                (TunerConfig::paper(), Algorithm::Dissemination),
                (TunerConfig::default(), Algorithm::NWay(6)),
            ] {
                let tuned = tune_hybrid(&prof, &cfg);
                assert_eq!(tuned.root_algorithm(), Some(root), "{mapping:?}");
            }
        }
    }

    /// A reused evaluator keeps the local schedules its last tune used,
    /// and only those, and tunes exactly as a fresh one does.
    #[test]
    fn evaluator_keeps_the_last_tunes_local_schedules() {
        let small = profile(&MachineSpec::dual_quad_cluster(2), &RankMapping::Block, 16);
        let large = profile(
            &MachineSpec::dual_quad_cluster(8),
            &RankMapping::RoundRobin,
            64,
        );
        let cfg = TunerConfig::default();
        let mut eval = CostEvaluator::new(CostParams::default());
        let mut kept = |prof: &TopologyProfile| {
            let members: Vec<usize> = (0..prof.p).collect();
            let warm = tune_hybrid_costs_with(&prof.cost, &members, &cfg, &mut eval);
            assert_eq!(warm.choices, tune_hybrid(prof, &cfg).choices);
            assert_eq!(warm.schedule, tune_hybrid(prof, &cfg).schedule);
            let mut keys: Vec<_> = eval.local_schedules.0.keys().copied().collect();
            keys.sort_by_key(|&(alg, m, skip)| (alg.to_string(), m, skip));
            keys
        };
        let first = kept(&small);
        assert!(first.contains(&(Algorithm::Linear, 4, false)));
        let other = kept(&large);
        assert!(other.iter().any(|&(_, m, _)| m == 8) && other != first);
        assert_eq!(kept(&small), first);
    }

    #[test]
    fn level_candidates_expand_only_dissemination() {
        use Algorithm::*;
        assert_eq!(
            level_candidates(Dissemination, 128),
            [
                Dissemination,
                NWay(3),
                NWay(4),
                NWay(6),
                NWay(12),
                NWay(128)
            ]
        );
        assert_eq!(level_candidates(NWay(2), 128), [Dissemination]);
        assert_eq!(level_candidates(NWay(5), 128), [NWay(5)]);
        assert_eq!(level_candidates(Linear, 128), [Linear]);
        assert_eq!(level_candidates(Butterfly, 6), []);
    }

    /// The bound never exceeds the score it stands in for, at any radix,
    /// participant set or level, on costs skewed per ordered pair; other
    /// algorithms are never bounded.
    #[test]
    fn lower_bound_is_below_every_radix_score() {
        let machine = MachineSpec::dual_hex_cluster(4);
        let mut cost = profile(&machine, &RankMapping::RoundRobin, 48).cost;
        for i in 0..48 {
            for j in 0..48 {
                let f =
                    1.0 + (crate::clustering::splitmix64((i * 64 + j) as u64) % 64) as f64 / 64.0;
                cost.o[(i, j)] *= f;
                cost.l[(i, j)] *= f;
            }
        }
        let mut eval = CostEvaluator::new(CostParams::default());
        let mut local = LocalSchedules::default();
        for participants in [
            vec![0, 1],
            vec![3, 7, 11],
            (0..48).step_by(5).collect(),
            (0..48).collect(),
        ] {
            let m = participants.len();
            let first = cheapest_from_first(&participants, &cost);
            assert_eq!(lower_bound(Algorithm::Linear, m, false, first), 0.0);
            for alg in level_candidates(Algorithm::Dissemination, m) {
                for is_root in [false, true] {
                    let score =
                        score_candidate(alg, &participants, is_root, &cost, &mut eval, &mut local);
                    let bound = lower_bound(alg, m, is_root, first);
                    assert!(
                        bound > 0.0 && bound <= score,
                        "{alg} over {m}: bound {bound:e}, score {score:e}"
                    );
                }
                // Below the root the departure counts too.
                assert!(lower_bound(alg, m, false, first) > lower_bound(alg, m, true, first));
            }
        }
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

    /// The default tune is as good as the best paper-set algorithm forced
    /// at every level, and better than the topology-neutral tree, on both
    /// paper node shapes under both placements across the sizes the paper
    /// and the benchmark tune at.
    #[test]
    fn default_tune_matches_best_forced_hierarchy_and_beats_neutral_tree() {
        for per_node in [8usize, 12] {
            for mapping in [RankMapping::Block, RankMapping::RoundRobin] {
                for p in [16usize, 32, 48, 64, 96, 120, 128, 256] {
                    let machine = MachineSpec::new(p.div_ceil(per_node), 2, per_node / 2);
                    let prof = profile(&machine, &mapping, p);
                    let tuned = tune_hybrid(&prof, &TunerConfig::default()).predicted_cost;
                    let forced = |a| tune_hybrid(&prof, &TunerConfig::forced(a)).predicted_cost;
                    let (best_alg, best) = (Algorithm::PAPER_SET.iter())
                        .map(|&a| (a, forced(a)))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("the paper set");
                    let cell = format!("{}, {mapping:?}, P = {p}", machine.name);
                    assert!(
                        tuned <= best * (1.0 + 1e-3),
                        "{cell}: tuned {tuned:e} > forced {best_alg} {best:e}"
                    );
                    let members: Vec<usize> = (0..p).collect();
                    let neutral =
                        barrier_cost(&Algorithm::Tree.full_schedule(p, &members), &prof.cost);
                    assert!(
                        tuned < neutral,
                        "{cell}: tuned {tuned:e} !< neutral tree {neutral:e}"
                    );
                }
            }
        }
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
    fn radix_choice_never_worsens_a_level_score() {
        // Clustering does not depend on the candidate set, so both runs
        // choose over identical participant sets per level — and a
        // minimum over the dissemination family, radix 2 included, cannot
        // exceed the minimum over the paper's radix 2 alone. (The
        // *full-schedule* prediction is not monotone: the greedy score
        // prices a level's own local schedule, not the composed
        // hierarchy.)
        let machine = MachineSpec::dual_hex_cluster(5);
        let prof = profile(&machine, &RankMapping::RoundRobin, 60);
        let paper = tune_hybrid(&prof, &TunerConfig::paper());
        let tuned = tune_hybrid(&prof, &TunerConfig::default());
        assert!(verify::is_barrier(&tuned.schedule));
        assert_eq!(paper.choices.len(), tuned.choices.len());
        for (p, t) in paper.choices.iter().zip(&tuned.choices) {
            assert_eq!(p.participants, t.participants);
            assert!(
                t.score <= p.score,
                "level {:?}: default score {} > paper score {}",
                p.participants,
                t.score,
                p.score
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
        /// participant set — non-consecutive, singleton, root or not —
        /// pricing a candidate through the view is
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
            // Every algorithm, and every radix the tuner can score at m.
            let mut algs = Algorithm::extended_set();
            algs.extend(level_candidates(Algorithm::Dissemination, m));
            let mut eval = CostEvaluator::new(CostParams::default());
            let mut local = LocalSchedules::default();
            for &alg in algs.iter().filter(|a| a.applicable(m)) {
                for is_root in [false, true] {
                    let view = score_candidate(alg, &participants, is_root, &cost, &mut eval, &mut local);
                    let arrival = alg.arrival_embedded(p, &participants);
                    let mut sched = BarrierSchedule::from_arrival_matrices(p, arrival);
                    if !is_root || alg.needs_departure() {
                        sched.append(sched.departure_reversed(0));
                    }
                    let embedded = CostEvaluator::new(CostParams::default())
                        .predict(&sched, &cost, None)
                        .barrier_cost;
                    prop_assert_eq!(
                        view.to_bits(),
                        embedded.to_bits(),
                        "{:?} over {:?} root={}: view {} vs embedded {}",
                        alg, &participants, is_root, view, embedded
                    );
                }
            }
        }
    }

    /// A cost model that counts how often it is fingerprinted.
    struct CountingFingerprints<'a> {
        inner: &'a dyn CostProvider,
        calls: std::cell::Cell<usize>,
    }

    impl CostProvider for CountingFingerprints<'_> {
        fn p(&self) -> usize {
            self.inner.p()
        }

        fn o_at(&self, i: usize, j: usize) -> f64 {
            self.inner.o_at(i, j)
        }

        fn l_at(&self, i: usize, j: usize) -> f64 {
            self.inner.l_at(i, j)
        }

        fn fingerprint(&self) -> u64 {
            self.calls.set(self.calls.get() + 1);
            self.inner.fingerprint()
        }

        fn distance_metric(&self) -> hbar_topo::metric::DistanceMetric<'_> {
            self.inner.distance_metric()
        }
    }

    #[test]
    fn one_shot_tune_is_a_fresh_evaluators_tune_without_the_fingerprint() {
        let p = 32;
        let machine = MachineSpec::dual_quad_cluster(4);
        let mut dense = profile(&machine, &RankMapping::RoundRobin, p).cost;
        for i in 0..p {
            for j in 0..p {
                let f =
                    1.0 + (crate::clustering::splitmix64((i * 64 + j) as u64) % 64) as f64 / 256.0;
                dense.o[(i, j)] *= f;
                dense.l[(i, j)] *= f;
            }
        }
        let compressed = hbar_topo::compressed::CompressedCostModel::from_dense(&dense).unwrap();
        let full: Vec<usize> = (0..p).collect();
        let subset: Vec<usize> = (0..p).filter(|r| r % 3 != 1).collect();
        let cfg = TunerConfig::default();
        for cost in [&dense as &dyn CostProvider, &compressed] {
            for members in [&full, &subset] {
                let counted = CountingFingerprints {
                    inner: cost,
                    calls: std::cell::Cell::new(0),
                };
                let one_shot = tune_hybrid_costs(&counted, members, &cfg);
                assert_eq!(counted.calls.get(), 0, "the one-shot tune fingerprinted");
                let mut eval = CostEvaluator::new(cfg.cost_params);
                let with = tune_hybrid_costs_with(&counted, members, &cfg, &mut eval);
                assert_eq!(
                    counted.calls.get(),
                    1,
                    "a tune with an evaluator binds it once"
                );
                assert_eq!(one_shot.schedule, with.schedule);
                assert_eq!(
                    one_shot.predicted_cost.to_bits(),
                    with.predicted_cost.to_bits()
                );
                assert_eq!(one_shot.choices, with.choices);
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
