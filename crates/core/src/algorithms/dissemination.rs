//! The dissemination barrier (Fig. 3 of the paper).
//!
//! "The dissemination barrier proceeds in ⌈log₂ P⌉ stages. For each stage
//! s, each participant i signals j = (i + 2^s) mod P." After the last
//! stage every participant knows of every arrival, so there is no
//! departure phase — the property that makes it attractive at the root of
//! a hierarchy (§VII-B).

use hbar_matrix::SparseBoolMatrix;

/// All stages of the dissemination barrier over local ranks `0..p`.
/// Returns no stages when `p < 2`.
pub fn dissemination_full(p: usize) -> Vec<SparseBoolMatrix> {
    let mut stages = Vec::new();
    let mut step = 1usize;
    while step < p {
        stages.push(SparseBoolMatrix::from_edges(
            p,
            (0..p).map(|i| (i, (i + step) % p)),
        ));
        step *= 2;
    }
    stages
}

/// The n-way generalization from Hoefler et al.'s barrier survey (the
/// paper's reference [7]): in stage `s`, each rank signals the `w − 1`
/// ranks at offsets `j · wˢ` for `j = 1 … w−1`, completing in
/// `⌈log_w P⌉` stages. `w = 2` is exactly [`dissemination_full`].
///
/// Fewer stages trade against more signals per stage — on fabrics where
/// per-stage startup (`O`) dominates, a wider fan can win; the cost
/// model arbitrates.
///
/// # Panics
/// Panics if `w < 2`.
pub fn nway_dissemination_full(p: usize, w: usize) -> Vec<SparseBoolMatrix> {
    assert!(w >= 2, "fan-out must be at least 2, got {w}");
    let mut stages = Vec::new();
    let mut step = 1usize;
    while step < p {
        // Offsets `j · step < p` are distinct and non-zero modulo `p`, so
        // no rank signals itself or one target twice.
        let offsets = (1..w).map(|j| j * step).take_while(|&o| o < p);
        stages.push(SparseBoolMatrix::from_edges(
            p,
            (0..p).flat_map(|i| offsets.clone().map(move |o| (i, (i + o) % p))),
        ));
        step *= w;
    }
    stages
}

/// Ascending radices, one per stage count `s = ⌈log₂ m⌉ … 1`: the smallest
/// `w` with `wˢ ≥ m` (a larger one with as many stages only adds signals).
pub(crate) fn dissemination_radices(m: usize) -> Vec<usize> {
    let (mut radices, mut w) = (Vec::new(), 2usize);
    for s in (1..=m.next_power_of_two().trailing_zeros()).rev() {
        while w.pow(s) < m {
            w += 1;
        }
        radices.push(w);
    }
    radices.dedup();
    radices
}

/// The generator as it filled bitset matrices (`w = 2` is the
/// dissemination barrier): the oracle of
/// `sparse_generators_match_the_dense_ones`.
#[cfg(test)]
pub(super) fn nway_dissemination_dense(p: usize, w: usize) -> Vec<hbar_matrix::BoolMatrix> {
    if p < 2 {
        return Vec::new();
    }
    let mut stages = Vec::new();
    let mut step = 1usize;
    while step < p {
        let mut m = hbar_matrix::BoolMatrix::zeros(p);
        for i in 0..p {
            for j in 1..w {
                let offset = j * step;
                if offset < p {
                    let dst = (i + offset) % p;
                    if dst != i {
                        m.set(i, dst, true);
                    }
                }
            }
        }
        stages.push(m);
        step *= w;
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_matrix::{knowledge_closure, BoolMatrix};

    #[test]
    fn matches_paper_fig3() {
        // Figure 3, |P| = 4: stage 0 signals i+1 mod 4, stage 1 signals i+2 mod 4.
        let stages = dissemination_full(4);
        assert_eq!(stages.len(), 2);
        let s0 = BoolMatrix::from_rows(&[
            vec![false, true, false, false],
            vec![false, false, true, false],
            vec![false, false, false, true],
            vec![true, false, false, false],
        ]);
        let s1 = BoolMatrix::from_rows(&[
            vec![false, false, true, false],
            vec![false, false, false, true],
            vec![true, false, false, false],
            vec![false, true, false, false],
        ]);
        assert_eq!(stages[0].to_dense(), s0);
        assert_eq!(stages[1].to_dense(), s1);
    }

    #[test]
    fn stage_count_is_ceil_log2() {
        for (p, expect) in [
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (64, 6),
            (120, 7),
        ] {
            assert_eq!(dissemination_full(p).len(), expect, "p={p}");
        }
    }

    #[test]
    fn arrival_alone_synchronizes_everyone() {
        for p in [2, 3, 5, 6, 7, 12, 22] {
            let k = knowledge_closure(p, &dissemination_full(p));
            assert!(k.is_all_true(), "p={p}");
        }
    }

    #[test]
    fn every_rank_sends_exactly_once_per_stage() {
        for stage in dissemination_full(11) {
            for i in 0..11 {
                assert_eq!(stage.row(i).len(), 1);
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert!(dissemination_full(0).is_empty());
        assert!(dissemination_full(1).is_empty());
    }

    #[test]
    fn nway_with_w2_equals_dissemination() {
        for p in [2usize, 5, 8, 13] {
            assert_eq!(
                nway_dissemination_full(p, 2),
                dissemination_full(p),
                "p={p}"
            );
        }
    }

    #[test]
    fn nway_synchronizes_fully_in_logw_stages() {
        for (p, w, expect_stages) in [
            (9usize, 3usize, 2usize),
            (27, 3, 3),
            (16, 4, 2),
            (10, 3, 3),
            (64, 4, 3),
        ] {
            let stages = nway_dissemination_full(p, w);
            assert_eq!(stages.len(), expect_stages, "p={p} w={w}");
            let k = knowledge_closure(p, &stages);
            assert!(k.is_all_true(), "p={p} w={w}");
        }
    }

    #[test]
    fn nway_sends_at_most_w_minus_1_per_stage() {
        for stage in nway_dissemination_full(20, 4) {
            for i in 0..20 {
                assert!(stage.row(i).len() <= 3);
            }
        }
    }

    #[test]
    fn radices_are_one_per_distinct_stage_count() {
        assert!(dissemination_radices(1).is_empty());
        assert_eq!(dissemination_radices(2), [2]);
        assert_eq!(dissemination_radices(3), [2, 3]);
        assert_eq!(dissemination_radices(9), [2, 3, 9]);
        assert_eq!(dissemination_radices(128), [2, 3, 4, 6, 12, 128]);
        for m in 2usize..=300 {
            let radices = dissemination_radices(m);
            let stages: Vec<usize> = (radices.iter())
                .map(|&w| nway_dissemination_full(m, w).len())
                .collect();
            // Stage counts strictly fall, and one radix less would need a
            // stage more.
            assert!(stages.windows(2).all(|s| s[0] > s[1]), "m={m}");
            for (&w, &s) in radices.iter().zip(&stages) {
                assert!(w == 2 || nway_dissemination_full(m, w - 1).len() > s);
            }
            assert_eq!(stages[0], m.next_power_of_two().trailing_zeros() as usize);
            assert_eq!(*stages.last().unwrap(), 1, "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "fan-out must be at least 2")]
    fn nway_rejects_w1() {
        nway_dissemination_full(4, 1);
    }
}
