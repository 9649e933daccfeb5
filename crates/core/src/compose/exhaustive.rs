//! Bounded exhaustive search for optimal barriers (§VII-B).
//!
//! The paper notes the alternative to its greedy construction: "it is
//! possible to find a loose upper bound on the number of stages in an
//! optimal algorithm, and potentially search the entire space of
//! admissible matrix sequences for the best solution. Even though it may
//! be feasible, however, this approach is quite computationally
//! demanding" — and leaves it unexplored. This module explores it, for
//! the small rank counts where it is tractable, primarily to quantify
//! how far the greedy hybrids sit from optimal.
//!
//! ## Search space
//!
//! The search is restricted to **Eq. 1 (arrival-mode) stages in which
//! every rank sends at most one signal**, keeping the per-stage branching
//! factor at `P^P` instead of `2^(P²−P)`. Dissemination, butterfly and
//! tree patterns live inside this space; the linear barrier's
//! multi-target Eq. 2 departure does not, so the result is the optimum of
//! the restricted class, not of all admissible matrix sequences —
//! consistent with the paper's remark that the full space "would examine
//! a large range of algorithms which are quite obviously far from
//! optimal".
//!
//! ## Algorithm
//!
//! Branch-and-bound over (knowledge state, per-rank ready times):
//!
//! * a state is the pair `(K, ready)` from Eq. 3 and the cost
//!   recurrence;
//! * the stage bound comes from the best known solution (seeded with the
//!   greedy hybrid's schedule, so the search only improves on it);
//! * dominated states (same knowledge, pointwise-later ready vector and
//!   not fewer remaining stages) are pruned via a per-knowledge table;
//! * stages are enumerated per rank as "send to j or stay idle",
//!   deduplicated by canonical form.

use crate::cost::{CostEvaluator, CostParams};
use crate::schedule::BarrierSchedule;
use hbar_matrix::{BoolMatrix, SparseBoolMatrix};
use hbar_topo::cost::{CostMatrices, SendMode};
use rayon::prelude::*;
use std::collections::HashMap;

/// Limits for the exhaustive search.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Hard cap on schedule length (stages): neither the result nor the
    /// incumbent bounding the search is ever longer. The greedy seed
    /// usually tightens the search well below it.
    pub max_stages: usize,
    /// Upper bound on total states expanded. The budget is checkpointed
    /// at wave boundaries (see [`search_optimal_barrier`]): every branch
    /// in a wave may spend up to the budget remaining when its wave
    /// began, so the total can overshoot by at most a factor of the fixed
    /// wave width — but the accounting is deterministic and
    /// thread-independent.
    pub max_expansions: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_stages: 6,
            max_expansions: 2_000_000,
        }
    }
}

/// Result of an exhaustive search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The best barrier found (verified).
    pub schedule: BarrierSchedule,
    /// Its predicted cost: exactly what [`CostEvaluator::barrier_cost`]
    /// says of `schedule`.
    pub cost: f64,
    /// States expanded during the search.
    pub expansions: usize,
    /// True if the search ran to completion (the result is optimal
    /// within the restricted space); false if it hit `max_expansions`.
    pub complete: bool,
}

/// Searches for a minimum-predicted-cost barrier over all ranks of
/// `cost`, within the one-signal-per-rank-per-stage space and at most
/// `cfg.max_stages` stages. `None` when no barrier fits the cap: below
/// ⌈log₂ P⌉ stages no one-signal-per-rank barrier exists, and a seed
/// longer than the cap is not a candidate.
///
/// `seed` optionally provides an initial incumbent (e.g. the greedy
/// hybrid); its cost prunes the search from the start.
///
/// The first-stage branches run on rayon's worker threads in
/// fixed-width waves. Each branch starts from the incumbent bound and
/// budget recorded at its wave boundary and owns its dominance table, so
/// outcomes are pure functions of the wave inputs; waves are reduced in
/// branch order with strict-`<` improvement, so the result is
/// bit-identical at any thread count.
///
/// # Panics
/// Panics if `cost` covers fewer than 2 ranks.
pub fn search_optimal_barrier(
    cost: &CostMatrices,
    cfg: &SearchConfig,
    seed: Option<&BarrierSchedule>,
) -> Option<SearchResult> {
    let p = cost.p();
    assert!(p >= 2, "need at least two ranks, got {p}");

    let mut eval = CostEvaluator::new(CostParams::default());
    let mut best_cost = f64::INFINITY;
    let mut best_schedule: Option<BarrierSchedule> = None;
    // Internal incumbent: the dissemination pattern lies inside the
    // restricted space (arrival stages, one signal per rank per stage),
    // so its cost is a sound upper bound that gives every branch strong
    // pruning even without a caller seed. Incumbents longer than the
    // stage cap are skipped.
    let members: Vec<usize> = (0..p).collect();
    let diss = BarrierSchedule::from_arrival_matrices(
        p,
        crate::algorithms::Algorithm::Dissemination.arrival_embedded(p, &members),
    );
    if let Some(s) = seed {
        assert_eq!(s.n(), p, "seed schedule rank count mismatch");
    }
    for incumbent in seed.into_iter().chain([&diss]) {
        if incumbent.len() > cfg.max_stages {
            continue;
        }
        let c = eval.barrier_cost(incumbent, cost, None);
        if c < best_cost {
            best_cost = c;
            best_schedule = Some(incumbent.clone());
        }
    }

    let k0 = BoolMatrix::identity(p);
    let ready0 = vec![0.0; p];
    let mut expansions = 0usize;
    let mut truncated = false;

    if cfg.max_stages > 0 {
        // Partition the space by first stage and process the branches in
        // fixed-width waves. Every branch in a wave starts from the
        // incumbent bound and the expansion budget recorded at the wave
        // boundary and owns its dominance table, so each outcome is a
        // pure function of (cost, cfg, bound, budget, first stage) —
        // identical whether the wave runs sequentially or on worker
        // threads. Folding the incumbent between waves (in branch order,
        // strict-`<` improvement: the first branch attaining the global
        // minimum wins) recovers most of the pruning a single shared
        // incumbent would give, without any cross-thread state.
        const WAVE: usize = 16;
        let first_stages = stage_candidates(&k0, p);
        let mut start = 0;
        while start < first_stages.len() {
            if expansions >= cfg.max_expansions {
                truncated = true;
                break;
            }
            let wave = &first_stages[start..(start + WAVE).min(first_stages.len())];
            start += wave.len();
            let bound = best_cost;
            let budget = cfg.max_expansions - expansions;
            let outcomes: Vec<BranchOutcome> = (wave.par_iter())
                .map(|stage| {
                    let mut searcher = Searcher {
                        p,
                        cost,
                        cfg,
                        eval: CostEvaluator::new(CostParams::default()),
                        budget,
                        best_cost: bound,
                        best_stages: Vec::new(),
                        best_from_search: false,
                        expansions: 0,
                        dominance: HashMap::new(),
                        truncated: false,
                    };
                    searcher.try_stage(&k0, &ready0, &mut Vec::new(), stage.clone());
                    BranchOutcome {
                        cost: searcher.best_cost,
                        stages: searcher.best_stages,
                        found: searcher.best_from_search,
                        expansions: searcher.expansions,
                        truncated: searcher.truncated,
                    }
                })
                .collect();
            for o in outcomes {
                expansions = expansions.saturating_add(o.expansions);
                truncated |= o.truncated;
                if o.found && o.cost < best_cost {
                    best_cost = o.cost;
                    best_schedule = Some(BarrierSchedule::from_arrival_matrices(p, o.stages));
                }
            }
        }
    }

    let schedule = best_schedule?;
    debug_assert!(schedule.is_barrier(), "search produced a non-barrier");
    Some(SearchResult {
        schedule,
        cost: best_cost,
        expansions,
        complete: !truncated,
    })
}

/// Outcome of searching one first-stage branch.
struct BranchOutcome {
    cost: f64,
    stages: Vec<SparseBoolMatrix>,
    found: bool,
    expansions: usize,
    truncated: bool,
}

/// All admissible one-signal-per-rank stages under knowledge `k`, in
/// mixed-radix enumeration order (rank 0's choice varies fastest). Ranks
/// only send to targets that would gain knowledge from them.
fn stage_candidates(k: &BoolMatrix, p: usize) -> Vec<SparseBoolMatrix> {
    let mut choices: Vec<Vec<Option<usize>>> = Vec::with_capacity(p);
    for i in 0..p {
        let mut c: Vec<Option<usize>> = vec![None];
        for j in 0..p {
            if i == j {
                continue;
            }
            // Sending i→j is useful iff i knows something j lacks.
            let useful = (0..p).any(|a| k.get(a, i) && !k.get(a, j));
            if useful {
                c.push(Some(j));
            }
        }
        choices.push(c);
    }

    let mut out = Vec::new();
    let mut pick = vec![0usize; p];
    loop {
        let signals = pick
            .iter()
            .enumerate()
            .filter_map(|(i, &ci)| choices[i][ci].map(|j| (i, j)));
        let stage = SparseBoolMatrix::from_edges(p, signals);
        if !stage.is_zero() {
            out.push(stage);
        }
        // Advance the mixed-radix counter.
        let mut idx = 0;
        loop {
            if idx == p {
                return out;
            }
            pick[idx] += 1;
            if pick[idx] < choices[idx].len() {
                break;
            }
            pick[idx] = 0;
            idx += 1;
        }
    }
}

struct Searcher<'a> {
    p: usize,
    cost: &'a CostMatrices,
    cfg: &'a SearchConfig,
    /// Prices each candidate stage (its scratch is all that is used).
    eval: CostEvaluator,
    /// Expansion budget for this branch: the global budget remaining at
    /// the wave boundary this branch was launched from.
    budget: usize,
    best_cost: f64,
    best_stages: Vec<SparseBoolMatrix>,
    best_from_search: bool,
    expansions: usize,
    /// Per knowledge-state: the cheapest ready-vectors seen (pareto set).
    dominance: HashMap<Vec<u64>, Vec<Vec<f64>>>,
    truncated: bool,
}

impl Searcher<'_> {
    /// Canonical key of a knowledge matrix (its raw words).
    fn key(&self, k: &BoolMatrix) -> Vec<u64> {
        (0..self.p).flat_map(|i| k.row(i).iter().copied()).collect()
    }

    /// Returns true if `ready` is dominated by a recorded vector for the
    /// same knowledge (pointwise ≤); records `ready` otherwise.
    fn dominated(&mut self, key: Vec<u64>, ready: &[f64]) -> bool {
        let entry = self.dominance.entry(key).or_default();
        for seen in entry.iter() {
            if seen.iter().zip(ready).all(|(a, b)| a <= &(b + 1e-15)) {
                return true;
            }
        }
        // Drop vectors the new one dominates, then record it.
        entry.retain(|seen| {
            !ready
                .iter()
                .zip(seen.iter())
                .all(|(a, b)| a <= &(b + 1e-15))
        });
        entry.push(ready.to_vec());
        false
    }

    fn expand(&mut self, k: &BoolMatrix, ready: &[f64], stages: &mut Vec<SparseBoolMatrix>) {
        if self.expansions >= self.budget {
            self.truncated = true;
            return;
        }
        self.expansions += 1;

        if k.is_all_true() {
            let cost = ready.iter().copied().fold(0.0f64, f64::max);
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best_stages = stages.clone();
                self.best_from_search = true;
            }
            return;
        }
        if stages.len() >= self.cfg.max_stages {
            return;
        }
        // Lower bound: even one more free stage cannot finish before the
        // current latest-ready rank plus the cheapest remaining signal.
        let frontier = ready.iter().copied().fold(0.0f64, f64::max);
        if frontier >= self.best_cost {
            return;
        }

        // Depth-first over one-signal-per-rank stages, in the shared
        // enumeration order.
        for stage in stage_candidates(k, self.p) {
            self.try_stage(k, ready, stages, stage);
        }
    }

    fn try_stage(
        &mut self,
        k: &BoolMatrix,
        ready: &[f64],
        stages: &mut Vec<SparseBoolMatrix>,
        stage: SparseBoolMatrix,
    ) {
        // The model's own step: every sender has exactly one target and
        // every stage is an Eq. 1 arrival stage.
        let mut next_ready = Vec::with_capacity(self.p);
        self.eval.step(
            &stage,
            SendMode::General,
            self.cost,
            |r| r,
            ready,
            &mut next_ready,
        );
        // Bound.
        let frontier = next_ready.iter().copied().fold(0.0f64, f64::max);
        if frontier >= self.best_cost {
            return;
        }
        // Knowledge update (Eq. 3): clone K and accumulate the flow on
        // top, instead of materializing the product separately.
        let mut next_k = k.clone();
        k.accumulate_sparse_product(&stage, &mut next_k);
        if next_k == *k {
            return; // useless stage (shouldn't happen given choice pruning)
        }
        let key = self.key(&next_k);
        if self.dominated(key, &next_ready) {
            return;
        }
        stages.push(stage);
        self.expand(&next_k, &next_ready, stages);
        stages.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::compose::{tune_hybrid_costs, TunerConfig};
    use crate::schedule::Stage;
    use crate::verify;
    use hbar_matrix::DenseMatrix;
    use hbar_topo::machine::MachineSpec;
    use hbar_topo::mapping::RankMapping;
    use hbar_topo::profile::TopologyProfile;

    fn barrier_cost(schedule: &BarrierSchedule, cost: &CostMatrices) -> f64 {
        CostEvaluator::new(CostParams::default()).barrier_cost(schedule, cost, None)
    }

    fn uniform(p: usize) -> CostMatrices {
        CostMatrices {
            o: DenseMatrix::from_fn(p, |i, j| if i == j { 0.1 } else { 10.0 }),
            l: DenseMatrix::from_fn(p, |i, j| if i == j { 0.0 } else { 1.0 }),
        }
    }

    #[test]
    fn two_ranks_optimum_is_single_exchange() {
        let cost = uniform(2);
        let result = search_optimal_barrier(&cost, &SearchConfig::default(), None).unwrap();
        assert!(result.complete);
        assert!(result.schedule.is_barrier());
        // One stage, both directions: the dissemination pattern.
        assert_eq!(result.schedule.len(), 1);
        assert_eq!(result.schedule.total_signals(), 2);
    }

    #[test]
    fn search_never_loses_to_algorithms_in_its_space() {
        // Dissemination and the tree are one-signal-per-rank-per-stage
        // patterns with Eq. 1 stages throughout (when departure stages
        // are re-priced as General) — i.e. inside the search space, so
        // the complete search must match or beat them. The linear
        // barrier's multi-target Eq. 2 departure is *outside* the space
        // and is not compared.
        for p in [3usize, 4] {
            let cost = uniform(p);
            let result = search_optimal_barrier(&cost, &SearchConfig::default(), None).unwrap();
            assert!(result.complete, "p={p}");
            let members: Vec<usize> = (0..p).collect();
            for alg in [Algorithm::Dissemination, Algorithm::Tree] {
                // Re-price every stage as a General-mode arrival stage.
                let general = BarrierSchedule::from_arrival_matrices(
                    p,
                    alg.full_schedule(p, &members)
                        .stages()
                        .iter()
                        .map(|s| s.matrix.clone())
                        .collect(),
                );
                let known = barrier_cost(&general, &cost);
                assert!(
                    result.cost <= known + 1e-12,
                    "p={p} {alg}: search {} > known {known}",
                    result.cost
                );
            }
        }
    }

    #[test]
    fn seeding_with_greedy_only_improves() {
        let machine = MachineSpec::new(1, 2, 2);
        let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::Block);
        let members: Vec<usize> = (0..4).collect();
        let greedy = tune_hybrid_costs(&prof.cost, &members, &TunerConfig::default());
        let result =
            search_optimal_barrier(&prof.cost, &SearchConfig::default(), Some(&greedy.schedule))
                .unwrap();
        assert!(result.schedule.is_barrier());
        assert!(
            result.cost <= greedy.predicted_cost + 1e-15,
            "search {} vs greedy {}",
            result.cost,
            greedy.predicted_cost
        );
    }

    #[test]
    fn found_schedules_verify_and_respect_stage_cap() {
        let cost = uniform(4);
        let cfg = SearchConfig {
            max_stages: 3,
            ..SearchConfig::default()
        };
        let result = search_optimal_barrier(&cost, &cfg, None).unwrap();
        assert!(result.schedule.is_barrier());
        assert!(result.schedule.len() <= 3);
    }

    #[test]
    fn no_barrier_within_the_cap_is_none() {
        // Below ⌈log₂ P⌉ stages no one-signal-per-rank barrier exists, and
        // the dissemination incumbent is over the cap too.
        let prof =
            TopologyProfile::from_ground_truth(&MachineSpec::new(1, 1, 3), &RankMapping::Block);
        for max_stages in [0, 1] {
            let cfg = SearchConfig {
                max_stages,
                ..SearchConfig::default()
            };
            assert!(search_optimal_barrier(&prof.cost, &cfg, None).is_none());
        }
        // A seed over the cap is no candidate either: the linear barrier
        // takes 2 stages, the cap allows 1.
        let seed = Algorithm::Linear.full_schedule(3, &[0, 1, 2]);
        assert_eq!(seed.len(), 2);
        let cfg = SearchConfig {
            max_stages: 1,
            ..SearchConfig::default()
        };
        assert!(search_optimal_barrier(&prof.cost, &cfg, Some(&seed)).is_none());
    }

    #[test]
    fn seed_over_the_cap_neither_returns_nor_bounds() {
        // P = 4 fits in 2 stages; a 4-stage seed (the linear barrier
        // twice) may neither come back nor prune under a 2-stage cap.
        let cost = uniform(4);
        let members: Vec<usize> = (0..4).collect();
        let mut seed = Algorithm::Linear.full_schedule(4, &members);
        seed.append(seed.clone());
        let cfg = SearchConfig {
            max_stages: 2,
            ..SearchConfig::default()
        };
        let seeded = search_optimal_barrier(&cost, &cfg, Some(&seed)).unwrap();
        let unseeded = search_optimal_barrier(&cost, &cfg, None).unwrap();
        assert!(seeded.schedule.len() <= 2);
        assert_eq!(seeded.schedule, unseeded.schedule);
        assert_eq!(seeded.cost.to_bits(), unseeded.cost.to_bits());
        assert_eq!(seeded.expansions, unseeded.expansions);
    }

    #[test]
    fn reported_cost_is_the_models_cost() {
        // The search prices partial schedules stage by stage; the model
        // prices the returned schedule whole. On random 4-rank profiles
        // the two agree bit for bit — including where the search beat its
        // dissemination incumbent, so the schedule is its own.
        let cfg = SearchConfig {
            max_stages: 3,
            max_expansions: 2_000,
        };
        let members: Vec<usize> = (0..4).collect();
        let diss = Algorithm::Dissemination.full_schedule(4, &members);
        let mut improved = 0;
        for seed in 0..8u64 {
            let jitter = |i: usize, j: usize| {
                let h = crate::clustering::splitmix64(seed * 64 + (i * 4 + j) as u64);
                1.0 + (h >> 11) as f64 / (1u64 << 53) as f64
            };
            let cost = CostMatrices {
                o: DenseMatrix::from_fn(4, |i, j| if i == j { 0.1 } else { 10.0 * jitter(i, j) }),
                l: DenseMatrix::from_fn(4, |i, j| if i == j { 0.0 } else { jitter(j, i) }),
            };
            let result = search_optimal_barrier(&cost, &cfg, None).unwrap();
            assert_eq!(
                result.cost.to_bits(),
                barrier_cost(&result.schedule, &cost).to_bits(),
                "seed {seed}"
            );
            improved += usize::from(result.cost < barrier_cost(&diss, &cost));
        }
        assert!(improved > 0, "every result was the incumbent");
    }

    #[test]
    fn expansion_cap_reports_incomplete() {
        let cost = uniform(5);
        let cfg = SearchConfig {
            max_expansions: 50,
            ..SearchConfig::default()
        };
        // Seed so a valid incumbent exists even when truncated.
        let members: Vec<usize> = (0..5).collect();
        let seed = Algorithm::Dissemination.full_schedule(5, &members);
        let result = search_optimal_barrier(&cost, &cfg, Some(&seed)).unwrap();
        assert!(!result.complete);
        assert!(result.schedule.is_barrier());
    }

    #[test]
    fn heterogeneous_costs_steer_the_optimum() {
        // 4 ranks: {0,1} and {2,3} are cheap pairs; cross pairs are 100x.
        // Two structures compete: the textbook local-gather → one cross
        // exchange → local-broadcast (2 crossings, but the cross exchange
        // waits behind the local gather), and a concurrent pattern that
        // launches all cross messages at t=0 (4 crossings that overlap).
        // The search discovers the latter is cheaper — a genuinely
        // non-obvious schedule the greedy composer never considers.
        let p = 4;
        let local = |i: usize, j: usize| (i < 2) == (j < 2);
        let cost = CostMatrices {
            o: DenseMatrix::from_fn(p, |i, j| {
                if i == j {
                    0.01
                } else if local(i, j) {
                    1.0
                } else {
                    100.0
                }
            }),
            l: DenseMatrix::from_fn(p, |i, j| {
                if i == j {
                    0.0
                } else if local(i, j) {
                    0.1
                } else {
                    10.0
                }
            }),
        };
        let result = search_optimal_barrier(&cost, &SearchConfig::default(), None).unwrap();
        assert!(result.complete);
        assert!(result.schedule.is_barrier());
        // It must beat the textbook hierarchical structure...
        let mut textbook = BarrierSchedule::new(p);
        textbook.push(Stage::arrival(SparseBoolMatrix::from_edges(
            p,
            [(1, 0), (3, 2)],
        )));
        textbook.push(Stage::arrival(SparseBoolMatrix::from_edges(
            p,
            [(0, 2), (2, 0)],
        )));
        textbook.push(Stage::arrival(SparseBoolMatrix::from_edges(
            p,
            [(0, 1), (2, 3)],
        )));
        assert!(verify::is_barrier(&textbook));
        let textbook_cost = barrier_cost(&textbook, &cost);
        assert!(
            result.cost <= textbook_cost + 1e-12,
            "search {} > textbook {textbook_cost}",
            result.cost
        );
        // ...and cannot use fewer than 2 slow-link crossings (information
        // must flow both ways across the boundary).
        let cross_signals: usize = result
            .schedule
            .stages()
            .iter()
            .flat_map(|s| s.matrix.edges())
            .filter(|&(i, j)| !local(i, j))
            .count();
        assert!(cross_signals >= 2, "{}", result.schedule);
    }
}
