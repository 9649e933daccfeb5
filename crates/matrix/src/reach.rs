//! Knowledge-closure computations for barrier verification.
//!
//! The paper's Eq. 3 tracks which arrivals each process knows about after
//! every stage: starting from `K₋₁ = I` (each process knows of its own
//! arrival), each stage `S_a` propagates knowledge along its signals:
//!
//! ```text
//! K_a = K_{a-1} + K_{a-1} · S_a        (boolean semiring)
//! ```
//!
//! A stage sequence is a barrier iff the final `K_k` is the all-ones matrix.
//! Note the orientation: entry `K[i][j]` set means *j knows that i arrived*
//! (row i's knowledge has reached column j), because a signal `i → j`
//! carries everything its sender knows.
//!
//! The stages are [`SparseBoolMatrix`] operands: `K·S` is a bitset matrix
//! times a sparse one, and every kernel here iterates the stage's senders
//! and targets and never scans `n²` stage bits. [`knowledge_closure`]
//! evaluates the equation as written, one product per stage.
//! [`walk_knowledge`] and [`ClosureWorkspace`], which every verification
//! path uses, evaluate the same recurrence on `Kᵀ`, so that a signal is a
//! row operation and the work is proportional to the non-zeros of `S`, not
//! to the bits of `K`.

use crate::{BoolMatrix, SparseBoolMatrix};

/// Walks Eq. 3 over `stages` once, calling `visit(a, known)` with what
/// every rank knows before stage `a`, and returns the final state.
///
/// Both are knower-major, `Kᵀ`: row `j` holds the arrivals rank `j`
/// knows, so `known.get(j, i)` is the paper's `K[i][j]`. Per stage, every
/// signal `i → j` ORs what `i` knew before the stage into what `j` knows
/// after it. A plain evaluation, kept apart from [`ClosureWorkspace`]'s
/// kernel so that the analyzer's verdict is an independent one. It holds
/// two `n × n` bit matrices however many stages there are.
pub fn walk_knowledge<'a, I>(
    n: usize,
    stages: I,
    mut visit: impl FnMut(usize, &BoolMatrix),
) -> BoolMatrix
where
    I: IntoIterator<Item = &'a SparseBoolMatrix>,
{
    let mut known = BoolMatrix::identity(n);
    let mut next = BoolMatrix::zeros(0);
    for (a, s) in stages.into_iter().enumerate() {
        assert_eq!(s.n(), n, "stage dimension {} != {}", s.n(), n);
        visit(a, &known);
        next.copy_from(&known);
        for (i, receivers) in s.sends() {
            let knows = known.row(i);
            for &j in receivers {
                for (x, k) in next.row_mut(j as usize).iter_mut().zip(knows) {
                    *x |= k;
                }
            }
        }
        std::mem::swap(&mut known, &mut next);
    }
    known
}

/// Reusable scratch for allocation-free knowledge closures.
///
/// The kernel evaluates Eq. 3 knower-major and signal-driven. It keeps
/// `T = Kᵀ` — row `j` of `T` is the set of arrivals rank `j` knows — so a
/// signal `k → j` is one row operation: receiver `j` learns sender `k`'s
/// pre-stage row. Within a stage every signal ORs its sender's row of `T`
/// into an accumulator row for its receiver, and the accumulators are
/// folded into `T` only once all of the stage's signals are consumed; a
/// rank that both sends and receives in a stage therefore forwards what
/// it knew *before* the stage, which is Eq. 3's `K_{a-1}·S_a`, without a
/// copy of the matrix.
///
/// Cost per stage: per signal `min(known(sender), words_per_row)` word
/// operations — a sender that knows fewer than `words_per_row / 2`
/// arrivals has those few bits listed once and set in each target's
/// accumulator instead of a whole-row OR — plus one fold per receiver.
/// Never more than `O(signals · n / 64)`, and linear in the signal count
/// while senders still know little (the opening stage of an all-to-all or
/// n-way pattern).
///
/// A knower whose row is all ones is saturated: signals into it are
/// dropped, and when every knower is saturated the remaining stages are
/// not read (all-ones is a fixed point of Eq. 3).
///
/// Memory is two `n × n` bit matrices: `T`, and the accumulator arena
/// (row `j` for receiver `j`), which is sized once per run, is all zero
/// between stages, and receives `K = Tᵀ` when a caller asks for the
/// matrix (a copy when `T` is all ones, a tile transpose otherwise).
/// [`Self::is_barrier`] never materialises `K`. After its first run at a
/// size the workspace does not touch the allocator.
#[derive(Clone, Debug)]
pub struct ClosureWorkspace {
    /// `T = Kᵀ`: row `j` holds the arrivals rank `j` knows.
    t: BoolMatrix,
    /// Accumulator rows while a run consumes stages; `K` after
    /// [`Self::closure`] / [`Self::closure_excluding`].
    k: BoolMatrix,
    /// What the kernel asks of row `j` of `T`: its popcount while that is
    /// below the scatter cut, `n` once the row is all ones; in between, the
    /// last count taken (a lower bound at or above the cut).
    known: Vec<u32>,
    /// Receivers whose accumulator row the current stage has written.
    pending: Vec<bool>,
    /// The arrivals of the sender being scattered.
    sender_bits: Vec<usize>,
}

impl ClosureWorkspace {
    pub fn new() -> Self {
        ClosureWorkspace {
            t: BoolMatrix::zeros(0),
            k: BoolMatrix::zeros(0),
            known: Vec::new(),
            pending: Vec::new(),
            sender_bits: Vec::new(),
        }
    }

    /// Runs the Eq. 3 closure over `stages`; the returned reference borrows
    /// the workspace's internal `K` buffer.
    pub fn closure<'a, I>(&mut self, n: usize, stages: I) -> &BoolMatrix
    where
        I: IntoIterator<Item = &'a SparseBoolMatrix>,
    {
        self.closure_matrix(n, stages, None)
    }

    /// Closure delta support: runs the Eq. 3 closure as if the single
    /// signal `edge = (src, dst)` of stage `skip_stage` were absent,
    /// without materializing a modified stage matrix. Comparing the result
    /// against [`Self::closure`] of the unmodified sequence decides whether
    /// that signal carries any knowledge the rest of the schedule does not
    /// already deliver (a *dead* signal).
    pub fn closure_excluding<'a, I>(
        &mut self,
        n: usize,
        stages: I,
        skip_stage: usize,
        edge: (usize, usize),
    ) -> &BoolMatrix
    where
        I: IntoIterator<Item = &'a SparseBoolMatrix>,
    {
        self.closure_matrix(n, stages, Some((skip_stage, edge)))
    }

    /// Early-exit barrier test: true iff every rank ends up knowing every
    /// arrival. Stops consuming stages as soon as knowledge is complete.
    pub fn is_barrier<'a, I>(&mut self, n: usize, stages: I) -> bool
    where
        I: IntoIterator<Item = &'a SparseBoolMatrix>,
    {
        self.run(n, stages, None) == n
    }

    /// Runs the closure and materialises `K = Tᵀ` in the arena.
    fn closure_matrix<'a, I>(
        &mut self,
        n: usize,
        stages: I,
        skip: Option<(usize, (usize, usize))>,
    ) -> &BoolMatrix
    where
        I: IntoIterator<Item = &'a SparseBoolMatrix>,
    {
        if self.run(n, stages, skip) == n {
            // A barrier's closure: all ones, its own transpose.
            self.k.copy_from(&self.t);
        } else {
            self.t.transpose_into(&mut self.k);
        }
        &self.k
    }

    /// Executes the closure into `T`, returning the number of saturated
    /// knowers. `skip`, if set, is `(stage_idx, (src, dst))`: that one
    /// signal is treated as absent from its stage.
    fn run<'a, I>(&mut self, n: usize, stages: I, skip: Option<(usize, (usize, usize))>) -> usize
    where
        I: IntoIterator<Item = &'a SparseBoolMatrix>,
    {
        self.t.reset_identity(n);
        self.k.reset_zeros(n);
        self.known.clear();
        self.known.resize(n, 1);
        self.pending.clear();
        self.pending.resize(n, false);
        self.sender_bits.clear();
        self.sender_bits.reserve(self.t.words_per_row() / 2);
        // Only n == 1 starts saturated.
        let mut saturated = usize::from(n == 1);
        for (idx, s) in stages.into_iter().enumerate() {
            assert_eq!(s.n(), n, "stage dimension {} != {}", s.n(), n);
            if saturated == n {
                break; // all-ones is a fixed point of Eq. 3
            }
            let stage_skip = match skip {
                Some((si, edge)) if si == idx => Some(edge),
                _ => None,
            };
            self.gather_stage(s, stage_skip);
            saturated += self.fold_stage();
        }
        saturated
    }

    /// Consumes the signals of stage `s`: each `k → j` ORs row `k` of `T`
    /// into accumulator row `j`. `T` is only read, so every sender
    /// forwards its pre-stage knowledge.
    fn gather_stage(&mut self, s: &SparseBoolMatrix, skip: Option<(usize, usize)>) {
        let n = s.n();
        // Listing a sender's arrivals costs one pass over its row; setting
        // them costs one word operation each, a row OR `words_per_row`.
        let scatter_below = self.t.words_per_row() / 2;
        for (sender, receivers) in s.sends() {
            let scatter = (self.known[sender] as usize) < scatter_below;
            if scatter {
                self.t.row_targets_into(sender, &mut self.sender_bits);
            }
            let knows = self.t.row(sender);
            for receiver in receivers.iter().map(|&r| r as usize) {
                if self.known[receiver] as usize == n || skip == Some((sender, receiver)) {
                    continue;
                }
                self.pending[receiver] = true;
                let acc = self.k.row_mut(receiver);
                if scatter {
                    for &i in &self.sender_bits {
                        acc[i / 64] |= 1u64 << (i % 64);
                    }
                } else {
                    for (a, kw) in acc.iter_mut().zip(knows) {
                        *a |= kw;
                    }
                }
            }
        }
    }

    /// Ends a stage: ORs every written accumulator row into `T`, clears
    /// it, and refreshes what `known` says of the receiver. Returns the
    /// number of knowers newly saturated.
    fn fold_stage(&mut self) -> usize {
        let n = self.known.len();
        let scatter_below = self.t.words_per_row() / 2;
        let mut newly = 0;
        for receiver in 0..n {
            if !std::mem::take(&mut self.pending[receiver]) {
                continue;
            }
            for (t, a) in self
                .t
                .row_mut(receiver)
                .iter_mut()
                .zip(self.k.row_mut(receiver))
            {
                *t |= std::mem::take(a);
            }
            if self.t.row_is_full(receiver) {
                self.known[receiver] = n as u32;
                newly += 1;
            } else if (self.known[receiver] as usize) < scatter_below {
                self.known[receiver] = self.t.row_popcount(receiver) as u32;
            }
        }
        newly
    }
}

impl Default for ClosureWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs Eq. 3 over `stages` as written — `K ← K + K·S`, one product per
/// stage — and returns only the final knowledge matrix.
pub fn knowledge_closure<'a, I>(n: usize, stages: I) -> BoolMatrix
where
    I: IntoIterator<Item = &'a SparseBoolMatrix>,
{
    let mut k = BoolMatrix::identity(n);
    let mut prev = BoolMatrix::zeros(n);
    for s in stages {
        assert_eq!(s.n(), n, "stage dimension {} != {}", s.n(), n);
        prev.copy_from(&k);
        prev.accumulate_sparse_product(s, &mut k);
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stage in which every rank signals itself: never a barrier stage,
    /// but a legal operand of the closure.
    fn identity_stage(n: usize) -> SparseBoolMatrix {
        SparseBoolMatrix::from_edges(n, (0..n).map(|i| (i, i)))
    }

    fn linear_stages(n: usize) -> Vec<SparseBoolMatrix> {
        // All non-zero ranks signal rank 0, then rank 0 signals everyone.
        let mut s0 = SparseBoolMatrix::zeros(n);
        for i in 1..n {
            s0.set(i, 0, true);
        }
        let s1 = s0.transpose();
        vec![s0, s1]
    }

    #[test]
    fn linear_barrier_closes() {
        for n in [1, 2, 3, 4, 7, 65] {
            let k = knowledge_closure(n, &linear_stages(n));
            assert!(k.is_all_true(), "linear barrier failed for n={n}");
        }
    }

    #[test]
    fn arrival_only_is_not_a_barrier() {
        let stages = linear_stages(5);
        let k = knowledge_closure(5, &stages[..1]);
        assert!(!k.is_all_true());
        // Rank 0 knows all arrivals...
        for i in 0..5 {
            assert!(k.get(i, 0), "rank 0 should know arrival of {i}");
        }
        // ...but rank 1 does not know rank 2 arrived.
        assert!(!k.get(2, 1));
    }

    #[test]
    fn empty_stage_list_keeps_identity() {
        let k = knowledge_closure(4, &[]);
        assert_eq!(k, BoolMatrix::identity(4));
    }

    /// The walk's states in the paper's orientation: what is known before
    /// each stage, then the final state.
    fn walk_states(n: usize, stages: &[SparseBoolMatrix]) -> Vec<BoolMatrix> {
        let mut states = Vec::new();
        let last = walk_knowledge(n, stages, |a, known| {
            assert_eq!(a, states.len());
            states.push(known.transpose());
        });
        states.push(last.transpose());
        states
    }

    #[test]
    fn walk_records_progress() {
        let states = walk_states(4, &linear_stages(4));
        assert_eq!(states.len(), 3);
        assert_eq!(states[0], BoolMatrix::identity(4));
        assert!(!states[1].is_all_true());
        assert!(states[2].is_all_true());
    }

    #[test]
    fn knowledge_is_monotone() {
        let states = walk_states(6, &linear_stages(6));
        for w in states.windows(2) {
            let (prev, next) = (&w[0], &w[1]);
            // prev ⊆ next
            assert!(prev.edges().all(|(i, j)| next.get(i, j)));
        }
    }

    #[test]
    fn dissemination_pattern_closes_without_departure() {
        // ⌈log2(n)⌉ stages; stage s: i signals (i + 2^s) mod n.
        let n = 6;
        let stages = dissemination_stages(n);
        let states = walk_states(n, &stages);
        // No earlier prefix closes: knowledge completes at the last stage.
        let (last, before) = states.split_last().unwrap();
        assert!(last.is_all_true());
        assert!(before.iter().all(|k| !k.is_all_true()));
    }

    #[test]
    fn single_process_is_trivially_synchronized() {
        let k = knowledge_closure(1, &[]);
        assert!(k.is_all_true());
    }

    #[test]
    #[should_panic(expected = "stage dimension")]
    fn dimension_mismatch_panics() {
        knowledge_closure(3, &[SparseBoolMatrix::zeros(4)]);
    }

    fn dissemination_stages(n: usize) -> Vec<SparseBoolMatrix> {
        let mut stages = Vec::new();
        let mut step = 1;
        while step < n {
            let mut s = SparseBoolMatrix::zeros(n);
            for i in 0..n {
                s.set(i, (i + step) % n, true);
            }
            stages.push(s);
            step *= 2;
        }
        stages
    }

    #[test]
    fn workspace_closure_matches_free_function() {
        let mut ws = ClosureWorkspace::new();
        for n in [1, 2, 6, 64, 65, 130] {
            for stages in [linear_stages(n), dissemination_stages(n)] {
                let expected = knowledge_closure(n, &stages);
                // The same workspace is reused across sizes on purpose.
                assert_eq!(ws.closure(n, &stages), &expected, "n={n}");
                assert_eq!(ws.is_barrier(n, &stages), expected.is_all_true());
            }
        }
    }

    #[test]
    fn workspace_closure_on_incomplete_sequences() {
        let mut ws = ClosureWorkspace::new();
        let stages = linear_stages(9);
        let arrival_only = &stages[..1];
        assert_eq!(
            ws.closure(9, arrival_only),
            &knowledge_closure(9, arrival_only)
        );
        assert!(!ws.is_barrier(9, arrival_only));
        assert_eq!(ws.closure(9, &[]), &BoolMatrix::identity(9));
    }

    #[test]
    fn workspace_mixed_degree_stage_takes_both_paths() {
        // A departure-style stage: rank 0 signals everyone (dense row,
        // word-OR path) while all others are silent; preceded by a sparse
        // arrival so the scatter path runs too.
        let n = 200;
        let stages = linear_stages(n);
        let mut ws = ClosureWorkspace::new();
        assert!(ws.is_barrier(n, &stages));
        assert_eq!(
            ws.closure(n, &stages[..1]),
            &knowledge_closure(n, &stages[..1])
        );
    }

    #[test]
    fn workspace_early_exit_ignores_trailing_stages() {
        let n = 8;
        let mut stages = dissemination_stages(n);
        // Append a stage of the wrong flavour after saturation: the early
        // exit must not change the outcome.
        stages.push(identity_stage(n));
        stages.push(SparseBoolMatrix::zeros(n));
        let mut ws = ClosureWorkspace::new();
        assert!(ws.is_barrier(n, &stages));
        assert!(ws.closure(n, &stages).is_all_true());
    }

    #[test]
    fn closure_excluding_matches_materialized_removal() {
        let mut ws = ClosureWorkspace::new();
        for n in [3usize, 6, 9, 70] {
            let stages = dissemination_stages(n);
            for (si, s) in stages.iter().enumerate() {
                for (src, dst) in s.edges().take(6) {
                    // Reference: clone the stage matrix and clear the bit.
                    let mut modified: Vec<SparseBoolMatrix> = stages.clone();
                    modified[si].set(src, dst, false);
                    let expected = knowledge_closure(n, &modified);
                    let got = ws.closure_excluding(n, &stages, si, (src, dst));
                    assert_eq!(got, &expected, "n={n} stage={si} edge=({src},{dst})");
                }
            }
        }
    }

    #[test]
    fn closure_excluding_dense_sender_takes_scatter_path() {
        // Linear departure: rank 0 signals every other rank (dense row, the
        // word-OR fallback) — masking one of its signals must force the
        // scatter path and leave exactly that target short of knowledge.
        let n = 130;
        let stages = linear_stages(n);
        let mut ws = ClosureWorkspace::new();
        assert!(ws.closure(n, &stages).is_all_true());
        let masked = ws.closure_excluding(n, &stages, 1, (0, 77));
        assert!(!masked.is_all_true());
        assert!(!masked.get(1, 77), "77 must not learn of rank 1's arrival");
        assert!(masked.get(1, 76));
    }

    #[test]
    fn closure_excluding_nonexistent_edge_is_identity_operation() {
        let n = 8;
        let stages = dissemination_stages(n);
        let mut ws = ClosureWorkspace::new();
        let expected = knowledge_closure(n, &stages);
        // (0, 3) is not a signal of stage 0 (stage 0 is i -> i+1).
        assert_eq!(ws.closure_excluding(n, &stages, 0, (0, 3)), &expected);
        // Out-of-range stage index: nothing skipped.
        assert_eq!(ws.closure_excluding(n, &stages, 99, (0, 1)), &expected);
    }

    /// Eq. 3 by definition — `K₀ = I`, `K ← K ∨ K·S` per stage — through
    /// `get`/`set` alone, with `skip = (stage, src, dst)` treated as unset.
    fn eq3_oracle(
        n: usize,
        stages: &[SparseBoolMatrix],
        skip: Option<(usize, usize, usize)>,
    ) -> BoolMatrix {
        let mut k = BoolMatrix::identity(n);
        for (idx, s) in stages.iter().enumerate() {
            // The dense view: one bit test per cell, as before stages
            // were lists (this is what CI's Miri step pays for).
            let (s, prev) = (s.to_dense(), k.clone());
            for (m, j) in (0..n).flat_map(|m| (0..n).map(move |j| (m, j))) {
                if s.get(m, j) && skip != Some((idx, m, j)) {
                    // The signal m → j carries all m knew before the stage.
                    for i in (0..n).filter(|&i| prev.get(i, m)) {
                        k.set(i, j, true);
                    }
                }
            }
        }
        k
    }

    /// Sizes on both sides of the one- and two-word row boundaries.
    const ORACLE_SIZES: [usize; 6] = [1, 2, 63, 64, 65, 130];

    fn assert_matches_oracle(ws: &mut ClosureWorkspace, n: usize, stages: &[SparseBoolMatrix]) {
        let want = eq3_oracle(n, stages, None);
        assert_eq!(ws.closure(n, stages), &want, "closure, n={n}");
        assert_eq!(
            ws.is_barrier(n, stages),
            want.is_all_true(),
            "verdict, n={n}"
        );
    }

    /// Stage `i → (i + m·w^round) mod n` for `m = 1..w`.
    fn nway_stage(n: usize, w: usize, round: u32) -> SparseBoolMatrix {
        let mut s = SparseBoolMatrix::zeros(n);
        for i in 0..n {
            for m in 1..w {
                s.set(i, (i + m * w.pow(round)) % n, true);
            }
        }
        s
    }

    #[test]
    fn kernel_matches_oracle_on_dense_and_nway_stages() {
        let mut ws = ClosureWorkspace::new();
        for n in ORACLE_SIZES {
            let all_to_all = SparseBoolMatrix::from_edges(
                n,
                (0..n).flat_map(|i| (0..n).filter(move |&j| i != j).map(move |j| (i, j))),
            );
            assert_matches_oracle(&mut ws, n, &[all_to_all]);
            // 4-way dissemination: one stage, then as many as saturate.
            let rounds: Vec<SparseBoolMatrix> = (0..4).map(|r| nway_stage(n, 4, r)).collect();
            assert_matches_oracle(&mut ws, n, &rounds[..1]);
            assert_matches_oracle(&mut ws, n, &rounds);
        }
    }

    #[test]
    fn kernel_forwards_pre_stage_knowledge_only() {
        // Every rank sends to its successor and receives from its
        // predecessor: after one stage a rank knows two arrivals, not the
        // chain a stage applied in place would give it.
        let mut ws = ClosureWorkspace::new();
        for n in ORACLE_SIZES {
            let ring = nway_stage(n, 2, 0);
            assert_matches_oracle(&mut ws, n, std::slice::from_ref(&ring));
            if n > 2 {
                let k = ws.closure(n, std::slice::from_ref(&ring));
                assert!(k.get(0, 1) && !k.get(0, 2), "n={n}");
            }
            assert_matches_oracle(&mut ws, n, &[ring.clone(), ring.clone(), ring]);
        }
    }

    #[test]
    fn kernel_matches_oracle_on_both_sides_of_the_scatter_cut() {
        // Six-word rows: a sender knowing one or two arrivals has them
        // scattered, one knowing three or more is OR-ed as a row.
        let n = 330;
        let mut ws = ClosureWorkspace::new();
        let rounds: Vec<SparseBoolMatrix> = (0..4).map(|r| nway_stage(n, 2, r)).collect();
        assert_matches_oracle(&mut ws, n, &rounds);
        // Both kinds of sender in one stage, into one receiver, next to a
        // sender that is itself a receiver.
        let gather = SparseBoolMatrix::from_edges(n, (1..10).map(|i| (i, 0)));
        let mixed =
            SparseBoolMatrix::from_edges(n, [(0, 100), (50, 100), (0, 329), (100, 0), (64, 0)]);
        assert_matches_oracle(&mut ws, n, &[gather, mixed.clone(), mixed]);
    }

    #[test]
    fn one_workspace_serves_shrinking_and_growing_sizes() {
        let mut ws = ClosureWorkspace::new();
        for n in [130, 2, 65, 1, 64, 130, 63] {
            assert_matches_oracle(&mut ws, n, &dissemination_stages(n));
            assert_matches_oracle(&mut ws, n, &linear_stages(n)[..1]);
        }
    }

    #[test]
    fn kernel_ignores_stages_after_saturation() {
        let mut ws = ClosureWorkspace::new();
        for n in ORACLE_SIZES {
            let mut stages = dissemination_stages(n);
            stages.push(nway_stage(n, 2, 0));
            stages.push(SparseBoolMatrix::zeros(n));
            stages.push(identity_stage(n));
            assert_matches_oracle(&mut ws, n, &stages);
            assert!(ws.is_barrier(n, &stages), "n={n}");
        }
    }

    #[test]
    fn closure_excluding_a_signal_whose_sender_also_receives() {
        let mut ws = ClosureWorkspace::new();
        for n in ORACLE_SIZES.into_iter().filter(|&n| n > 2) {
            // In every ring stage each sender is a receiver too.
            let stages = dissemination_stages(n);
            for (stage, src) in [(0, 0), (0, n - 1), (1, n / 2), (stages.len() - 1, 1)] {
                let dst = stages[stage].row(src)[0] as usize;
                let want = eq3_oracle(n, &stages, Some((stage, src, dst)));
                let got = ws.closure_excluding(n, &stages, stage, (src, dst));
                assert_eq!(got, &want, "n={n} stage={stage} edge=({src},{dst})");
                assert!(!want.is_all_true(), "dissemination has no dead signal");
            }
        }
    }

    #[test]
    fn walk_states_are_the_closures_of_the_prefixes() {
        for n in [1, 2, 6, 64, 65, 130] {
            for stages in [linear_stages(n), dissemination_stages(n)] {
                let states = walk_states(n, &stages);
                assert_eq!(states.len(), stages.len() + 1);
                for (upto, state) in states.iter().enumerate() {
                    assert_eq!(state, &knowledge_closure(n, &stages[..upto]), "n={n}");
                }
            }
        }
    }
}
