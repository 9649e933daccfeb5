//! Property-based tests for the matrix substrate.

use hbar_matrix::{knowledge_closure, BoolMatrix, ClosureWorkspace, DenseMatrix, SparseBoolMatrix};
use proptest::prelude::*;

fn arb_bool_matrix(max_n: usize) -> impl Strategy<Value = BoolMatrix> {
    (1..=max_n)
        .prop_flat_map(move |n| (Just(n), prop::collection::vec((0..n, 0..n), 0..n * 3)))
        .prop_map(|(n, edges)| BoolMatrix::from_edges(n, &edges))
}

/// Eq. 3 by definition — `K₀ = I`, `K ← K ∨ K·S` per stage — through
/// `get`/`set` alone: the oracle for the closure kernel.
fn eq3_closure(n: usize, stages: &[SparseBoolMatrix]) -> BoolMatrix {
    let mut k = BoolMatrix::identity(n);
    for s in stages {
        let (s, prev) = (s.to_dense(), k.clone());
        for (m, j) in (0..n).flat_map(|m| (0..n).map(move |j| (m, j))) {
            if s.get(m, j) {
                // The signal m → j carries all m knew before the stage.
                for i in (0..n).filter(|&i| prev.get(i, m)) {
                    k.set(i, j, true);
                }
            }
        }
    }
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `ClosureWorkspace` agrees with the definition of Eq. 3 — closure
    /// and barrier verdict — on random stage lists at sizes crossing the
    /// 64-bit word and the block boundary, sparse stages followed by dense
    /// ones (bit density up to 0.5). Half the cases end in a dissemination
    /// schedule, so both verdicts and the saturation early exit are
    /// exercised.
    #[test]
    fn closure_workspace_matches_eq3_definition(
        n in 1usize..=130,
        stage_edges in prop::collection::vec(
            prop::collection::vec((0usize..130, 0usize..130), 0..300), 0..6),
        dense in prop::collection::vec((0.0f64..0.5, any::<u64>()), 0..3),
        complete in any::<bool>(),
    ) {
        let mut stages: Vec<SparseBoolMatrix> = stage_edges
            .iter()
            .map(|edges| {
                SparseBoolMatrix::from_edges(n, edges.iter().map(|&(i, j)| (i % n, j % n)))
            })
            .collect();
        // Dense stages: each signal present with the drawn probability, so
        // senders have many targets and receivers many senders.
        for &(density, seed) in &dense {
            let mut x = seed;
            let drawn = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).filter(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 11) as f64) < density * (1u64 << 53) as f64
            });
            stages.push(SparseBoolMatrix::from_edges(n, drawn));
        }
        if complete {
            let mut step = 1;
            while step < n {
                stages.push(SparseBoolMatrix::from_edges(n, (0..n).map(|i| (i, (i + step) % n))));
                step *= 2;
            }
        }
        let want = eq3_closure(n, &stages);
        if complete {
            prop_assert!(want.is_all_true(), "dissemination must saturate the oracle");
        }
        let mut ws = ClosureWorkspace::new();
        // Leave another size's state behind in the workspace first.
        ws.closure(131 - n, &stages[..0]);
        prop_assert_eq!(ws.closure(n, &stages), &want);
        prop_assert_eq!(ws.is_barrier(n, &stages), want.is_all_true());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// popcount is consistent with the edge iterator and row popcounts.
    #[test]
    fn popcount_consistency(m in arb_bool_matrix(50)) {
        let via_edges = m.edges().count();
        let via_rows: usize = (0..m.n()).map(|i| m.row_popcount(i)).sum();
        prop_assert_eq!(m.popcount(), via_edges);
        prop_assert_eq!(m.popcount(), via_rows);
    }

    /// Stage order within a *pipeline* matters, but closure over a
    /// permutation of identical stages doesn't change the final result
    /// when every stage is the same matrix.
    #[test]
    fn closure_idempotent_on_repeated_stage(m in arb_bool_matrix(20), reps in 1usize..5) {
        let n = m.n();
        let m = SparseBoolMatrix::from(&m);
        let stages: Vec<SparseBoolMatrix> = std::iter::repeat_n(m.clone(), reps + n).collect();
        let k1 = knowledge_closure(n, &stages);
        // More repetitions beyond n cannot add knowledge (fixed point).
        let more: Vec<SparseBoolMatrix> = std::iter::repeat_n(m, 2 * (reps + n)).collect();
        let k2 = knowledge_closure(n, &more);
        prop_assert_eq!(k1, k2);
    }

    /// Transpose is an involution and swaps coordinates, across sizes that
    /// straddle the 64-bit word boundary (the blocked kernel's tile edges).
    #[test]
    fn transpose_involution_and_swap(n in 1usize..=130,
                                     edges in prop::collection::vec((0usize..130, 0usize..130), 0..400)) {
        let edges: Vec<(usize, usize)> = edges.into_iter().filter(|(i, j)| *i < n && *j < n).collect();
        let m = BoolMatrix::from_edges(n, &edges);
        let t = m.transpose();
        prop_assert_eq!(&t.transpose(), &m);
        for &(i, j) in &edges {
            prop_assert_eq!(m.get(i, j), t.get(j, i));
        }
        // Spot-check zero entries too, not just the set ones.
        for i in (0..n).step_by(7) {
            for j in (0..n).step_by(5) {
                prop_assert_eq!(m.get(i, j), t.get(j, i), "at ({}, {})", i, j);
            }
        }
    }

    /// Dense symmetrize is idempotent and commutes with transpose.
    #[test]
    fn symmetrize_idempotent(n in 1usize..12, vals in prop::collection::vec(-100.0f64..100.0, 144)) {
        let mut m = DenseMatrix::from_fn(n, |i, j| vals[(i * n + j) % vals.len()]);
        m.symmetrize();
        prop_assert!(m.is_symmetric());
        let mut again = m.clone();
        again.symmetrize();
        prop_assert_eq!(again, m.clone());
        prop_assert_eq!(m.transpose(), m);
    }
}
