//! Layered critical-path cost prediction (§VI of the paper).
//!
//! "Predictions were collected by carrying out the sequence of matrix
//! multiplications indicated by Equation 3, weighting the incidence
//! matrices by the cost implied by Equations 1, 2, to obtain matrices of
//! per-rank cost estimates at each step. … the predicted value is
//! extracted from traversing the dependency graph from all arrivals
//! through all departures, and reporting critical path cost."
//!
//! Our concrete recurrence (one interpretation consistent with the quoted
//! description; documented here because the paper leaves the details to
//! its implementation):
//!
//! * `ready_r(0)` is rank `r`'s arrival time at the barrier (0 unless
//!   skews are injected).
//! * In stage `s`, a sender `i` with ordered target list `J` completes its
//!   sends at `ready_i(s) + t(i, J)` with `t` from Eq. 1 (arrival stages)
//!   or Eq. 2 (departure stages); the `k`-th target's signal lands at
//!   `ready_i(s)` plus the cumulative cost of the first `k` messages.
//! * A receiver handles inbound signals serially, paying `L_{src,r}` per
//!   message after its arrival (synchronized sends make the receiver an
//!   active party to each signal; this is what lets the model reproduce
//!   the master-rank bottleneck of the linear barrier).
//! * `ready_r(s+1)` is the max of `ready_r(s)`, `r`'s send completion and
//!   `r`'s receive completion; the barrier cost is the largest final
//!   `ready` value.
//!
//! The recurrence has one implementation, [`CostEvaluator`]'s per-stage
//! step: predictions, the greedy composer's candidate scores and the
//! exhaustive search's partial schedules all run through it. The
//! allocating Eq. 1 / Eq. 2 form it was derived from survives only in
//! this module's tests, as the oracle the evaluator is held to.

use crate::algorithms::Algorithm;
use crate::clustering::{build_cluster_tree, ClusterNode};
use crate::compose::LocalSchedules;
use crate::schedule::BarrierSchedule;
use hbar_matrix::{ClosureWorkspace, SparseBoolMatrix};
use hbar_topo::cost::{CostProvider, Fnv, SendMode};
use std::collections::HashMap;

// The dense fingerprint lives in `hbar-topo::cost`, beside the matrices it
// hashes; re-exported here because `hbar serve` and external cache keys
// were documented against this path.
pub use hbar_topo::cost::{cost_fingerprint, COST_FINGERPRINT_VERSION};

/// Options for the prediction model — there are none: the §VI model
/// above is the only one, serial receive handling included. The type
/// stays, field-less, only because the pipeline benchmark (`benchmark/`)
/// names it (`TunerConfig::cost_params`, `CostParams::default()`);
/// deleting it waits for a change to that benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostParams {}

/// Full result of a prediction.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Time at which each rank exits the final stage (seconds, relative to
    /// a common time origin).
    pub rank_exit: Vec<f64>,
    /// Critical-path cost: the latest exit minus the earliest entry.
    pub barrier_cost: f64,
    /// Per-stage completion time of the slowest rank, cumulative.
    pub stage_frontier: Vec<f64>,
}

/// FNV-1a hash of a member set (order-sensitive; the composer always
/// passes members in ascending rank order, so equal sets hash equally).
pub fn member_set_hash(members: &[usize]) -> u64 {
    let mut h = Fnv::default();
    h.word(members.len() as u64);
    for &m in members {
        h.word(m as u64);
    }
    h.0
}

/// Key of one memoized per-cluster algorithm score: the member set
/// (hashed — see [`member_set_hash`]), the candidate algorithm, and
/// whether the level is the root (where a fully synchronizing algorithm
/// skips its departure). Valid only for the cost matrices the owning
/// [`CostEvaluator`] is bound to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScoreKey {
    pub members_hash: u64,
    pub members_len: usize,
    pub algorithm: Algorithm,
    pub is_root: bool,
}

/// The §VI prediction engine — the one implementation of the stage
/// recurrence. All per-call scratch (ready/next vectors, the
/// per-receiver inbound arena and its counting-sort staging) is owned by
/// the evaluator, so repeated predictions over the same rank count
/// perform zero heap allocation.
///
/// It additionally memoizes per-cluster algorithm scores for the greedy
/// composer ([`Self::cached_score`]/[`Self::store_score`]); the cache is
/// keyed by [`ScoreKey`] and guarded by a fingerprint of the bound cost
/// matrices — [`Self::rebind`] clears it whenever the matrices change.
///
/// Numeric contract: every prediction equals, bit for bit, the paper's
/// allocating Eq. 1 / Eq. 2 form (per-sender send-set costs, per-target
/// arrival offsets, a stable sort of each receiver's inbound signals by
/// arrival), which this module's tests keep as the oracle. Receiver
/// inbound messages are staged per receiver in ascending sender order
/// and sorted by `(arrival, sender)` with an unstable sort; since each
/// sender signals a receiver at most once per stage this reproduces the
/// stable sort by arrival time alone.
#[derive(Clone, Debug)]
pub struct CostEvaluator {
    // Scratch, sized to the rank count on first use.
    ready: Vec<f64>,
    next: Vec<f64>,
    counts: Vec<usize>,
    starts: Vec<usize>,
    cursor: Vec<usize>,
    entries: Vec<(f64, usize)>,
    // Memoized greedy scores, valid for `bound_fingerprint`.
    memo: HashMap<ScoreKey, f64>,
    bound_fingerprint: Option<u64>,
    // Memoized cluster trees, same validity.
    trees: HashMap<TreeKey, ClusterNode>,
    // The composer's candidate schedules; cost-free, so kept across
    // rebinds.
    pub(crate) local_schedules: LocalSchedules,
    // Knowledge-closure scratch for allocation-free verification.
    closure: ClosureWorkspace,
}

/// Key of one cached cluster tree: the member set (hashed as in
/// [`member_set_hash`]) plus the clustering knobs that shape the tree.
/// Trees are derived deterministically from the bound costs and kept
/// while [`CostEvaluator::rebind`] keeps seeing the same fingerprint: the
/// adaptive re-tuning loop re-tunes on a fixed cadence but its measured
/// costs usually haven't drifted, and a tune that finds its tree and its
/// scores skips clustering's pass over the P² costs. (The metric is not
/// kept: it is a view of the costs and free to build.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct TreeKey {
    members_hash: u64,
    members_len: usize,
    sparseness_bits: u64,
    max_depth: usize,
}

impl CostEvaluator {
    /// A fresh evaluator; scratch grows on first prediction.
    pub fn new(_params: CostParams) -> Self {
        CostEvaluator {
            ready: Vec::new(),
            next: Vec::new(),
            counts: Vec::new(),
            starts: Vec::new(),
            cursor: Vec::new(),
            entries: Vec::new(),
            memo: HashMap::new(),
            bound_fingerprint: None,
            trees: HashMap::new(),
            local_schedules: LocalSchedules::default(),
            closure: ClosureWorkspace::new(),
        }
    }

    /// Verifies `schedule` synchronizes all ranks (Eq. 3) against the
    /// evaluator's closure scratch: allocation-free after warm-up, with
    /// early exit on row saturation.
    pub fn is_barrier(&mut self, schedule: &BarrierSchedule) -> bool {
        crate::verify::is_barrier_with(schedule, &mut self.closure)
    }

    /// Subset-synchronization check against the evaluator's closure
    /// scratch (see [`crate::verify::synchronizes_subset`]).
    pub fn synchronizes_subset(&mut self, schedule: &BarrierSchedule, members: &[usize]) -> bool {
        crate::verify::synchronizes_subset_with(schedule, members, &mut self.closure)
    }

    /// Binds the score memo to `cost`: a no-op when its
    /// [`CostProvider::fingerprint`] is the bound one (so successive tunes
    /// on the same profile share hits), a cache clear otherwise. Equal
    /// fingerprints mean bit-equal entries, so a kept memo is never stale;
    /// the same entries in another storage or encoding fingerprint
    /// differently and merely start the memo cold.
    pub fn rebind<C: CostProvider + ?Sized>(&mut self, cost: &C) {
        let fp = cost.fingerprint();
        if self.bound_fingerprint != Some(fp) {
            self.memo.clear();
            self.trees.clear();
            self.bound_fingerprint = Some(fp);
        }
    }

    /// The SSS cluster tree for `members` under the bound cost matrices,
    /// served from the evaluator's tree cache when the same clustering
    /// was already built since the last fingerprint change. The tree is a
    /// deterministic function of `(cost, members, sparseness, max_depth)`,
    /// so a hit returns the identical tree a fresh build would.
    ///
    /// As with [`Self::cached_score`], callers must have
    /// [`Self::rebind`]-ed to `cost` first.
    pub fn cluster_tree<C: CostProvider + ?Sized>(
        &mut self,
        cost: &C,
        members: &[usize],
        sparseness: f64,
        max_depth: usize,
    ) -> ClusterNode {
        let key = TreeKey {
            members_hash: member_set_hash(members),
            members_len: members.len(),
            sparseness_bits: sparseness.to_bits(),
            max_depth,
        };
        (self.trees.entry(key))
            .or_insert_with(|| {
                build_cluster_tree(&cost.distance_metric(), members, sparseness, max_depth)
            })
            .clone()
    }

    /// Number of memoized scores (for tests/telemetry).
    pub fn cached_scores(&self) -> usize {
        self.memo.len()
    }

    /// Looks up a memoized score. Callers must have [`Self::rebind`]-ed
    /// to the cost matrices the key was scored under.
    pub fn cached_score(&self, key: &ScoreKey) -> Option<f64> {
        self.memo.get(key).copied()
    }

    /// Records a score for later [`Self::cached_score`] hits.
    pub fn store_score(&mut self, key: ScoreKey, score: f64) {
        self.memo.insert(key, score);
    }

    /// Critical-path cost only — the fully allocation-free entry point.
    pub fn barrier_cost<C: CostProvider + ?Sized>(
        &mut self,
        schedule: &BarrierSchedule,
        cost: &C,
        skews: Option<&[f64]>,
    ) -> f64 {
        assert_covers(cost, schedule.n());
        let origin = self.advance(schedule, cost, |r| r, skews, None);
        self.ready.iter().copied().fold(f64::NEG_INFINITY, f64::max) - origin
    }

    /// Critical-path cost of a schedule over `ranks.len()` local ranks
    /// whose local rank `a` is rank `ranks[a]` of `cost` — how the
    /// composer prices a candidate's local stages. Every entry is read in
    /// place through the participant list: the values, in the order, that
    /// a dense copy of the participants' `m × m` costs would hold.
    pub(crate) fn participant_cost<C: CostProvider + ?Sized>(
        &mut self,
        schedule: &BarrierSchedule,
        cost: &C,
        ranks: &[usize],
    ) -> f64 {
        assert_eq!(ranks.len(), schedule.n(), "one participant per local rank");
        let origin = self.advance(schedule, cost, |a| ranks[a], None, None);
        self.ready.iter().copied().fold(f64::NEG_INFINITY, f64::max) - origin
    }

    /// Per-rank ready times after `schedule`, every rank entering at 0:
    /// the state [`Self::resumed_cost`] continues from.
    pub(crate) fn ready_after<C: CostProvider + ?Sized>(
        &mut self,
        schedule: &BarrierSchedule,
        cost: &C,
    ) -> Vec<f64> {
        assert_covers(cost, schedule.n());
        self.advance(schedule, cost, |r| r, None, None);
        self.ready.clone()
    }

    /// Critical-path cost of a barrier resumed from the per-rank `ready`
    /// times of [`Self::ready_after`]: `local`'s stages over the ascending
    /// participants `ranks` (local rank `a` is rank `ranks[a]`, as in
    /// [`Self::participant_cost`]), then `tail`'s stages over all ranks.
    ///
    /// No rank outside `ranks` takes part in `local`, and the participant
    /// view runs each of its stages over the same values in the same
    /// order as the stage embedded over all ranks would, so this equals,
    /// bit for bit, [`Self::barrier_cost`] of the schedule `ready` was
    /// taken after, `local` embedded, then `tail`.
    pub(crate) fn resumed_cost<C: CostProvider + ?Sized>(
        &mut self,
        ready: &[f64],
        local: &BarrierSchedule,
        ranks: &[usize],
        tail: &BarrierSchedule,
        cost: &C,
    ) -> f64 {
        assert_eq!(ranks.len(), local.n(), "one participant per local rank");
        assert_eq!(ready.len(), tail.n(), "one ready time per rank");
        assert_covers(cost, tail.n());
        let mut cur = std::mem::take(&mut self.ready);
        let mut next = std::mem::take(&mut self.next);
        cur.clear();
        cur.extend(ranks.iter().map(|&r| ready[r]));
        for stage in local.stages() {
            self.step(
                &stage.matrix,
                stage.mode,
                cost,
                |a| ranks[a],
                &cur,
                &mut next,
            );
            std::mem::swap(&mut cur, &mut next);
        }
        next.clear();
        next.extend_from_slice(ready);
        for (&r, &t) in ranks.iter().zip(&cur) {
            next[r] = t;
        }
        std::mem::swap(&mut cur, &mut next);
        for stage in tail.stages() {
            self.step(&stage.matrix, stage.mode, cost, |r| r, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        let latest = cur.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.ready = cur;
        self.next = next;
        latest
    }

    /// Full prediction; only the returned vectors are allocated.
    pub fn predict<C: CostProvider + ?Sized>(
        &mut self,
        schedule: &BarrierSchedule,
        cost: &C,
        skews: Option<&[f64]>,
    ) -> Prediction {
        assert_covers(cost, schedule.n());
        let mut stage_frontier = Vec::with_capacity(schedule.len());
        let origin = self.advance(schedule, cost, |r| r, skews, Some(&mut stage_frontier));
        let latest = self.ready.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Prediction {
            rank_exit: self.ready.clone(),
            barrier_cost: latest - origin,
            stage_frontier,
        }
    }

    /// Runs the stage recurrence, leaving final per-rank exit times in
    /// `self.ready`, and returns the time origin. Schedule rank `r` reads
    /// `cost`'s rank `rank(r)`. Generic over the cost backing and the
    /// rank map: with dense matrices and the identity every `*_at`
    /// inlines to the index load the pre-provider code performed; with
    /// the compressed model it is a `u16` class load plus a table load.
    fn advance<C: CostProvider + ?Sized>(
        &mut self,
        schedule: &BarrierSchedule,
        cost: &C,
        rank: impl Fn(usize) -> usize,
        skews: Option<&[f64]>,
        mut frontier: Option<&mut Vec<f64>>,
    ) -> f64 {
        let n = schedule.n();
        // Taken out of `self` for the loop so `step` can borrow the rest.
        let mut ready = std::mem::take(&mut self.ready);
        let mut next = std::mem::take(&mut self.next);
        ready.clear();
        match skews {
            Some(s) => {
                assert_eq!(s.len(), n, "skew vector length mismatch");
                ready.extend_from_slice(s);
            }
            None => ready.resize(n, 0.0),
        }
        let origin = ready.iter().copied().fold(f64::INFINITY, f64::min).min(0.0);
        for stage in schedule.stages() {
            self.step(&stage.matrix, stage.mode, cost, &rank, &ready, &mut next);
            std::mem::swap(&mut ready, &mut next);
            if let Some(fr) = frontier.as_deref_mut() {
                fr.push(ready.iter().copied().fold(f64::NEG_INFINITY, f64::max) - origin);
            }
        }
        self.ready = ready;
        self.next = next;
        origin
    }

    /// One stage of the recurrence: `next` becomes the per-rank ready
    /// times after `matrix`'s signals, sent under `mode`, from the ready
    /// times `ready` before them. Schedule rank `r` reads `cost`'s rank
    /// `rank(r)`. Every caller of the model — [`Self::predict`], the
    /// composer's participant view, its root priced in context and the
    /// exhaustive search's partial schedules — prices a stage here and
    /// nowhere else.
    #[inline]
    pub(crate) fn step<C: CostProvider + ?Sized>(
        &mut self,
        matrix: &SparseBoolMatrix,
        mode: SendMode,
        cost: &C,
        rank: impl Fn(usize) -> usize,
        ready: &[f64],
        next: &mut Vec<f64>,
    ) {
        let n = ready.len();
        // next starts as "no progress", i.e. a copy of ready.
        next.clear();
        next.extend_from_slice(ready);
        // Counting-sort staging: bucket inbound signals by receiver,
        // preserving ascending sender order within each bucket.
        self.counts.clear();
        self.counts.resize(n, 0);
        for (_, targets) in matrix.sends() {
            for &j in targets {
                self.counts[j as usize] += 1;
            }
        }
        self.starts.clear();
        let mut acc = 0usize;
        for &c in &self.counts {
            self.starts.push(acc);
            acc += c;
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts);
        self.entries.clear();
        self.entries.resize(acc, (0.0, 0));

        for (i, targets) in matrix.sends() {
            let base = ready[i];
            let ri = rank(i);
            let oii = cost.o_at(ri, ri);
            // Eq. 1 / Eq. 2 accumulated left to right over the target
            // order: the k-th target lands at the running startup (max O,
            // or O_ii) plus the running latency sum, and the sender is
            // done when the last one lands.
            let mut lat = 0.0f64;
            let mut run_max = f64::NEG_INFINITY;
            for j in targets.iter().map(|&j| j as usize) {
                debug_assert_ne!(j, i, "rank {i} cannot signal itself");
                let rj = rank(j);
                lat += cost.l_at(ri, rj);
                run_max = run_max.max(cost.o_at(ri, rj));
                let startup = match mode {
                    SendMode::General => run_max,
                    SendMode::ReceiversAwaiting => oii,
                };
                let slot = self.cursor[j];
                self.entries[slot] = (base + (startup + lat), i);
                self.cursor[j] = slot + 1;
            }
            let startup = match mode {
                SendMode::General => run_max,
                SendMode::ReceiversAwaiting => oii,
            };
            next[i] = base + (startup + lat);
        }

        for (j, nj) in next.iter_mut().enumerate() {
            let cnt = self.counts[j];
            if cnt == 0 {
                continue;
            }
            let seg = &mut self.entries[self.starts[j]..self.starts[j] + cnt];
            // Senders are unique per (receiver, stage), so ordering by
            // (arrival, sender) equals a stable sort by arrival over
            // ascending-sender insertion order.
            seg.sort_unstable_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite times")
                    .then_with(|| a.1.cmp(&b.1))
            });
            // Serial receive handling: L_{src,j} per inbound signal.
            let rj = rank(j);
            let mut t = f64::NEG_INFINITY;
            for &(at, src) in seg.iter() {
                t = t.max(at) + cost.l_at(rank(src), rj);
            }
            *nj = nj.max(t);
        }
        // A rank never regresses in time.
        for (nx, &r) in next.iter_mut().zip(ready) {
            *nx = nx.max(r);
        }
    }
}

/// A schedule over all of `cost`'s ranks must cover exactly that many.
fn assert_covers<C: CostProvider + ?Sized>(cost: &C, n: usize) {
    assert_eq!(
        cost.p(),
        n,
        "cost matrices cover {} ranks, schedule has {n}",
        cost.p()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::schedule::Stage;
    use hbar_matrix::DenseMatrix;
    use hbar_topo::cost::CostMatrices;
    use hbar_topo::machine::MachineSpec;
    use hbar_topo::mapping::RankMapping;
    use hbar_topo::metric::DistanceMetric;
    use hbar_topo::profile::TopologyProfile;

    /// Eq. 1 (`General`) or Eq. 2 (`ReceiversAwaiting`): the cost of
    /// `sender` signalling every rank of `targets`, in order. An empty
    /// set is free.
    fn send_set_cost(c: &CostMatrices, sender: usize, targets: &[usize], mode: SendMode) -> f64 {
        if targets.is_empty() {
            return 0.0;
        }
        let latency: f64 = targets.iter().map(|&j| c.l[(sender, j)]).sum();
        let startup = match mode {
            SendMode::General => (targets.iter())
                .map(|&j| c.o[(sender, j)])
                .fold(f64::NEG_INFINITY, f64::max),
            SendMode::ReceiversAwaiting => c.o[(sender, sender)],
        };
        startup + latency
    }

    /// When `targets[k]`'s signal lands, relative to the sender starting
    /// the set: the send-set cost of the targets up to and including it.
    fn arrival_offset(
        c: &CostMatrices,
        sender: usize,
        targets: &[usize],
        k: usize,
        mode: SendMode,
    ) -> f64 {
        send_set_cost(c, sender, &targets[..=k], mode)
    }

    /// The oracle: the recurrence in the paper's Eq. 1 / Eq. 2 form,
    /// allocating per stage and per sender, with a stable sort of each
    /// receiver's inbound signals by arrival time.
    fn predict_barrier_cost(
        schedule: &BarrierSchedule,
        cost: &CostMatrices,
        skews: Option<&[f64]>,
    ) -> Prediction {
        let n = schedule.n();
        let mut ready: Vec<f64> = skews.map_or_else(|| vec![0.0; n], <[f64]>::to_vec);
        let origin = ready.iter().copied().fold(f64::INFINITY, f64::min).min(0.0);
        let mut stage_frontier = Vec::with_capacity(schedule.len());
        for stage in schedule.stages() {
            let mut next = ready.clone();
            // (arrival_time, src) per receiver.
            let mut inbound: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n];
            for (i, targets) in stage.matrix.sends() {
                let targets: Vec<usize> = targets.iter().map(|&j| j as usize).collect();
                next[i] = ready[i] + send_set_cost(cost, i, &targets, stage.mode);
                for (k, &j) in targets.iter().enumerate() {
                    let at = ready[i] + arrival_offset(cost, i, &targets, k, stage.mode);
                    inbound[j].push((at, i));
                }
            }
            for (j, mut msgs) in inbound.into_iter().enumerate() {
                if msgs.is_empty() {
                    continue;
                }
                msgs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
                let mut t = f64::NEG_INFINITY;
                for (at, src) in msgs {
                    t = t.max(at) + cost.l[(src, j)];
                }
                next[j] = next[j].max(t);
            }
            for r in 0..n {
                next[r] = next[r].max(ready[r]);
            }
            ready = next;
            stage_frontier.push(ready.iter().copied().fold(f64::NEG_INFINITY, f64::max) - origin);
        }
        let latest = ready.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Prediction {
            barrier_cost: latest - origin,
            rank_exit: ready,
            stage_frontier,
        }
    }

    fn predict(sched: &BarrierSchedule, c: &CostMatrices, skews: Option<&[f64]>) -> Prediction {
        CostEvaluator::new(CostParams::default()).predict(sched, c, skews)
    }

    /// Uniform costs: O = 10 off-diagonal, O_ii = 1, L = 2.
    fn uniform(n: usize) -> CostMatrices {
        CostMatrices {
            o: DenseMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { 10.0 }),
            l: DenseMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 2.0 }),
        }
    }

    /// 3 ranks: O row 0 = [0.5, 10, 50], L row 0 = [0, 1, 2].
    fn sample() -> CostMatrices {
        let o = DenseMatrix::from_vec(3, vec![0.5, 10.0, 50.0, 10.0, 0.5, 30.0, 50.0, 30.0, 0.5]);
        let l = DenseMatrix::from_vec(3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 3.0, 2.0, 3.0, 0.0]);
        CostMatrices { o, l }
    }

    /// Per-rank exits of one stage in which rank 0 signals `targets`
    /// (ascending) under `mode`: rank 0's exit is its Eq. 1 / Eq. 2
    /// send-set cost, a target's is its landing time plus `L_{0,j}`.
    fn one_stage(c: &CostMatrices, targets: &[usize], mode: SendMode) -> Vec<f64> {
        let matrix = SparseBoolMatrix::from_edges(c.p(), targets.iter().map(|&j| (0, j)));
        let mut sched = BarrierSchedule::new(c.p());
        sched.push(Stage { matrix, mode });
        predict(&sched, c, None).rank_exit
    }

    #[test]
    fn eq1_takes_max_overhead_plus_sum_latency() {
        let c = sample();
        // t(0, [1,2]) = max(10, 50) + (1 + 2) = 53
        assert_eq!(one_stage(&c, &[1, 2], SendMode::General)[0], 53.0);
        // Single target: max over one element.
        assert_eq!(one_stage(&c, &[1], SendMode::General)[0], 11.0);
    }

    #[test]
    fn eq2_uses_local_call_overhead() {
        // t(0, [1,2]) = O_00 + (1 + 2) = 3.5
        assert_eq!(
            one_stage(&sample(), &[1, 2], SendMode::ReceiversAwaiting)[0],
            3.5
        );
    }

    #[test]
    fn empty_send_set_is_free() {
        for mode in [SendMode::General, SendMode::ReceiversAwaiting] {
            assert_eq!(one_stage(&sample(), &[], mode), [0.0; 3]);
        }
    }

    #[test]
    fn arrival_offsets_are_cumulative_and_end_at_total() {
        let c = sample();
        let exit = one_stage(&c, &[1, 2], SendMode::General);
        // First target: max O over the first message only (10) + L_01 = 11,
        // handled for L_01 = 1.
        assert_eq!(exit[1], 12.0);
        // The last target lands with the Eq. 1 total, handled for L_02 = 2.
        assert_eq!(exit[2], exit[0] + 2.0);
        // Order matters: relabel so the slow target comes first.
        let rev = c.submatrices(&[0, 2, 1]);
        let exit = one_stage(&rev, &[1, 2], SendMode::General);
        assert_eq!(exit[1], 52.0 + 2.0);
        assert_eq!(exit[2], exit[0] + 1.0);
    }

    #[test]
    fn arrival_offsets_monotone_in_k() {
        let c = sample().submatrices(&[0, 2, 1]);
        for mode in [SendMode::General, SendMode::ReceiversAwaiting] {
            let exit = one_stage(&c, &[1, 2], mode);
            let a0 = exit[1] - c.l[(0, 1)];
            let a1 = exit[2] - c.l[(0, 2)];
            assert!(a1 >= a0, "{mode:?}: {a1} < {a0}");
        }
    }

    #[test]
    fn single_signal_costs_o_plus_l_plus_processing() {
        let c = uniform(2);
        let mut sched = BarrierSchedule::new(2);
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(2, [(1, 0)])));
        let p = predict(&sched, &c, None);
        // Sender: max O + L = 12; receiver processes at +L = 14.
        assert_eq!(p.barrier_cost, 14.0);
        assert_eq!(p.rank_exit[1], 12.0);
        assert_eq!(p.rank_exit[0], 14.0);
    }

    #[test]
    fn departure_mode_uses_oii() {
        let c = uniform(3);
        let mut sched = BarrierSchedule::new(3);
        sched.push(Stage::departure(SparseBoolMatrix::from_edges(
            3,
            [(0, 1), (0, 2)],
        )));
        let p = predict(&sched, &c, None);
        // Eq. 2: O_00 + L + L = 1 + 4 = 5 at the sender; the last
        // receiver lands then and handles the signal for L = 2.
        assert_eq!(p.rank_exit[0], 5.0);
        assert_eq!(p.barrier_cost, 7.0);
    }

    #[test]
    fn master_bottleneck_grows_linearly() {
        // The linear barrier's arrival stage: the master's serial receive
        // handling makes cost grow with P (the paper's measured behaviour).
        let cost_at = |p: usize| {
            let c = uniform(p);
            let members: Vec<usize> = (0..p).collect();
            let sched = Algorithm::Linear.full_schedule(p, &members);
            predict(&sched, &c, None).barrier_cost
        };
        let c8 = cost_at(8);
        let c16 = cost_at(16);
        let c32 = cost_at(32);
        // Near-linear growth: doubling P roughly doubles the increment.
        let d1 = c16 - c8;
        let d2 = c32 - c16;
        assert!(
            d2 > 1.5 * d1,
            "expected superlinear deltas, got {d1} then {d2}"
        );
    }

    #[test]
    fn tree_beats_linear_at_scale_on_uniform_costs() {
        let p = 64;
        let c = uniform(p);
        let members: Vec<usize> = (0..p).collect();
        let lin = predict(&Algorithm::Linear.full_schedule(p, &members), &c, None);
        let tree = predict(&Algorithm::Tree.full_schedule(p, &members), &c, None);
        assert!(tree.barrier_cost < lin.barrier_cost);
    }

    #[test]
    fn skews_shift_the_critical_path() {
        let c = uniform(2);
        let mut sched = BarrierSchedule::new(2);
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(2, [(1, 0)])));
        // Rank 1 arrives 100s late: everything shifts behind it.
        let p = predict(&sched, &c, Some(&[0.0, 100.0]));
        assert_eq!(p.barrier_cost, 114.0);
        // Rank 0 arriving late doesn't delay rank 1's send, but delays
        // nothing else either (rank 0 only receives).
        let p2 = predict(&sched, &c, Some(&[5.0, 0.0]));
        assert_eq!(p2.rank_exit[1], 12.0);
        assert_eq!(p2.barrier_cost, 14.0);
    }

    #[test]
    fn stage_frontier_is_monotone() {
        let p = 16;
        let c = uniform(p);
        let members: Vec<usize> = (0..p).collect();
        let sched = Algorithm::Dissemination.full_schedule(p, &members);
        let pred = predict(&sched, &c, None);
        for w in pred.stage_frontier.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(pred.stage_frontier.len(), sched.len());
        assert_eq!(*pred.stage_frontier.last().unwrap(), pred.barrier_cost);
    }

    #[test]
    fn hierarchical_profile_separates_algorithms() {
        // On a 2-node machine, the tree barrier (which localizes early
        // stages under block mapping) must beat the linear barrier, and
        // predictions must be in the paper's order of magnitude.
        let machine = MachineSpec::dual_quad_cluster(4);
        let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
        let p = prof.p;
        let members: Vec<usize> = (0..p).collect();
        let cost_of = |alg: Algorithm| predict(&alg.full_schedule(p, &members), &prof.cost, None);
        let lin = cost_of(Algorithm::Linear).barrier_cost;
        let tree = cost_of(Algorithm::Tree).barrier_cost;
        let diss = cost_of(Algorithm::Dissemination).barrier_cost;
        assert!(tree < lin, "tree {tree} < linear {lin}");
        assert!(diss < lin);
        for v in [lin, tree, diss] {
            assert!(
                (1e-5..5e-3).contains(&v),
                "barrier cost {v} outside plausible range"
            );
        }
    }

    #[test]
    fn evaluator_is_bit_identical_to_reference() {
        // Every field of the prediction must match exactly (==, not
        // approximately) across algorithms, modes, profiles and skews.
        let machine = MachineSpec::dual_quad_cluster(4);
        let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
        let p = prof.p;
        let members: Vec<usize> = (0..p).collect();
        let skews: Vec<f64> = (0..p).map(|r| (r % 5) as f64 * 1e-6).collect();
        let mut eval = CostEvaluator::new(CostParams::default());
        for alg in [Algorithm::Linear, Algorithm::Tree, Algorithm::Dissemination] {
            let sched = alg.full_schedule(p, &members);
            for skew in [None, Some(skews.as_slice())] {
                let reference = predict_barrier_cost(&sched, &prof.cost, skew);
                let fast = eval.predict(&sched, &prof.cost, skew);
                assert_eq!(fast, reference, "{alg:?}");
                assert_eq!(
                    eval.barrier_cost(&sched, &prof.cost, skew),
                    reference.barrier_cost
                );
            }
        }
    }

    #[test]
    fn evaluator_handles_tie_arrivals_like_reference() {
        // Uniform costs produce many identical arrival times; the
        // (arrival, sender) sort must replicate the stable reference.
        let p = 16;
        let c = uniform(p);
        let members: Vec<usize> = (0..p).collect();
        let mut eval = CostEvaluator::new(CostParams::default());
        for alg in [Algorithm::Linear, Algorithm::Tree, Algorithm::Dissemination] {
            let sched = alg.full_schedule(p, &members);
            let reference = predict_barrier_cost(&sched, &c, None);
            assert_eq!(eval.predict(&sched, &c, None), reference);
        }
    }

    /// Resuming from the ready times a prefix leaves — a local schedule
    /// through the participant view, then a tail over all ranks — prices
    /// the whole schedule bit for bit, on costs skewed per ordered pair
    /// and a prefix that touches every rank.
    #[test]
    fn resumed_cost_equals_the_whole_schedules_price() {
        let machine = MachineSpec::dual_quad_cluster(3);
        let mut cost = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin).cost;
        let n = cost.p();
        for i in 0..n {
            for j in 0..n {
                let f =
                    1.0 + (crate::clustering::splitmix64((i * 64 + j) as u64) % 64) as f64 / 64.0;
                cost.o[(i, j)] *= f;
                cost.l[(i, j)] *= f;
            }
        }
        let all: Vec<usize> = (0..n).collect();
        let prefix = Algorithm::Dissemination.full_schedule(n, &all);
        let tail = Algorithm::Tree.full_schedule(n, &all);
        let ranks = [1, 4, 5, 11, 17, 23];
        let mut eval = CostEvaluator::new(CostParams::default());
        let ready = eval.ready_after(&prefix, &cost);
        for alg in [Algorithm::Linear, Algorithm::Tree, Algorithm::NWay(3)] {
            let local = alg.full_schedule(ranks.len(), &[0, 1, 2, 3, 4, 5]);
            let mut whole = prefix.clone();
            whole.append(alg.full_schedule(n, &ranks));
            whole.append(tail.clone());
            assert_eq!(
                eval.resumed_cost(&ready, &local, &ranks, &tail, &cost)
                    .to_bits(),
                predict_barrier_cost(&whole, &cost, None)
                    .barrier_cost
                    .to_bits(),
                "{alg}"
            );
        }
    }

    #[test]
    fn evaluator_scratch_survives_rank_count_changes() {
        let mut eval = CostEvaluator::new(CostParams::default());
        for p in [8, 32, 4, 16] {
            let c = uniform(p);
            let members: Vec<usize> = (0..p).collect();
            let sched = Algorithm::Dissemination.full_schedule(p, &members);
            let reference = predict_barrier_cost(&sched, &c, None);
            assert_eq!(eval.barrier_cost(&sched, &c, None), reference.barrier_cost);
        }
    }

    #[test]
    fn score_memo_survives_rebind_to_same_cost_only() {
        let c = uniform(8);
        let mut eval = CostEvaluator::new(CostParams::default());
        eval.rebind(&c);
        let key = ScoreKey {
            members_hash: member_set_hash(&[0, 1, 2]),
            members_len: 3,
            algorithm: Algorithm::Tree,
            is_root: false,
        };
        assert_eq!(eval.cached_score(&key), None);
        eval.store_score(key, 42.0);
        assert_eq!(eval.cached_score(&key), Some(42.0));
        // Same matrices: the memo persists.
        eval.rebind(&c.clone());
        assert_eq!(eval.cached_score(&key), Some(42.0));
        // Different matrices: the memo is invalidated.
        let mut other = c.clone();
        other.o[(0, 1)] += 1.0;
        eval.rebind(&other);
        assert_eq!(eval.cached_score(&key), None);
        assert_eq!(eval.cached_scores(), 0);
    }

    #[test]
    fn cluster_tree_cache_matches_fresh_build_and_invalidates() {
        let machine = MachineSpec::dual_quad_cluster(3);
        let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
        let members: Vec<usize> = (0..prof.p).collect();
        let metric = DistanceMetric::from_costs(&prof.cost);
        let fresh = build_cluster_tree(&metric, &members, 0.35, 8);
        let mut eval = CostEvaluator::new(CostParams::default());
        eval.rebind(&prof.cost);
        let first = eval.cluster_tree(&prof.cost, &members, 0.35, 8);
        let hit = eval.cluster_tree(&prof.cost, &members, 0.35, 8);
        assert_eq!(first, fresh);
        assert_eq!(hit, fresh);
        // Different knobs key separately.
        let shallow = eval.cluster_tree(&prof.cost, &members, 0.35, 1);
        assert!(shallow.cluster_count() <= fresh.cluster_count());
        // A rebind to different costs drops the cache; the rebuilt tree
        // reflects the new matrices rather than any stale entry.
        let mut other = prof.cost.clone();
        for j in 1..other.p() {
            other.o[(0, j)] *= 3.0;
            other.o[(j, 0)] *= 3.0;
        }
        eval.rebind(&other);
        let other_metric = DistanceMetric::from_costs(&other);
        let other_fresh = build_cluster_tree(&other_metric, &members, 0.35, 8);
        assert_eq!(eval.cluster_tree(&other, &members, 0.35, 8), other_fresh);
    }

    /// Pinned golden fingerprints. These literals are the published
    /// values of [`COST_FINGERPRINT_VERSION`] 1: a persistent cache
    /// keyed on the fingerprint is poisoned by any silent change to the
    /// hash, so a change that trips this test MUST come with a version
    /// bump (and new goldens), never with a quiet literal update.
    #[test]
    fn cost_fingerprint_is_pinned() {
        assert_eq!(COST_FINGERPRINT_VERSION, 1);
        let golden: [(CostMatrices, u64); 3] = [
            (uniform(2), 0x077d_be7e_0a64_5a4d),
            (uniform(8), 0xf418_07da_a556_813f),
            (
                {
                    let machine = MachineSpec::dual_quad_cluster(2);
                    TopologyProfile::from_ground_truth(&machine, &RankMapping::Block).cost
                },
                0x254e_5871_b4fd_2b87,
            ),
        ];
        for (i, (cost, expected)) in golden.iter().enumerate() {
            assert_eq!(
                cost_fingerprint(cost),
                *expected,
                "golden fingerprint {i} changed: bump COST_FINGERPRINT_VERSION and re-pin"
            );
        }
    }

    #[test]
    fn cost_fingerprint_separates_single_bit_flips() {
        let base = uniform(4);
        let fp = cost_fingerprint(&base);
        let mut o_flip = base.clone();
        o_flip.o[(1, 2)] = f64::from_bits(o_flip.o[(1, 2)].to_bits() ^ 1);
        assert_ne!(cost_fingerprint(&o_flip), fp);
        let mut l_flip = base.clone();
        l_flip.l[(3, 0)] = f64::from_bits(l_flip.l[(3, 0)].to_bits() ^ 1);
        assert_ne!(cost_fingerprint(&l_flip), fp);
        // Negative zero is a different bit pattern from positive zero.
        let mut z = base;
        z.l[(0, 1)] = -0.0;
        assert_ne!(
            cost_fingerprint(&z),
            fp,
            "-0.0 must hash differently from 0.0"
        );
    }

    #[test]
    fn member_set_hash_separates_sets() {
        assert_ne!(member_set_hash(&[0, 1]), member_set_hash(&[0, 2]));
        assert_ne!(member_set_hash(&[0, 1]), member_set_hash(&[0, 1, 2]));
        assert_eq!(member_set_hash(&[3, 7]), member_set_hash(&[3, 7]));
    }

    /// The value of a fixed set, pinned: the memo keys of every tune
    /// depend on it.
    #[test]
    fn member_set_hash_is_pinned() {
        assert_eq!(member_set_hash(&[0, 5, 64, 1023]), 0xccd2_db2f_3f58_7c49);
    }

    #[test]
    #[should_panic(expected = "cost matrices cover")]
    fn evaluator_size_mismatch_panics() {
        let c = uniform(3);
        let sched = BarrierSchedule::new(4);
        CostEvaluator::new(CostParams::default()).barrier_cost(&sched, &c, None);
    }
}
