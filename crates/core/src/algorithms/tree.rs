//! The binary tree barrier (Fig. 4 of the paper).
//!
//! "The tree barrier embodies the familiar textbook algorithm which
//! proceeds by collecting and dispatching signals in a binary tree
//! pattern of 2·⌈log₂ P⌉ stages." Arrival stage `s` combines blocks of
//! size `2^s`: every rank `i` with `i mod 2^(s+1) == 2^s` signals
//! `i − 2^s` (a binomial-tree reduction towards rank 0). The departure
//! phases are the transposed arrival stages in reverse order.

use hbar_matrix::SparseBoolMatrix;

/// Arrival phases (⌈log₂ p⌉ stages) of the binary tree barrier over local
/// ranks `0..p`, root 0. Returns no stages when `p < 2`.
pub fn tree_arrival(p: usize) -> Vec<SparseBoolMatrix> {
    let mut stages = Vec::new();
    let mut half = 1usize;
    while half < p {
        let senders = (half..p).step_by(half * 2);
        stages.push(SparseBoolMatrix::from_edges(
            p,
            senders.map(|i| (i, i - half)),
        ));
        half *= 2;
    }
    stages
}

/// The generator as it filled bitset matrices: the oracle of
/// `sparse_generators_match_the_dense_ones`.
#[cfg(test)]
pub(super) fn tree_arrival_dense(p: usize) -> Vec<hbar_matrix::BoolMatrix> {
    if p < 2 {
        return Vec::new();
    }
    let mut stages = Vec::new();
    let mut half = 1usize;
    while half < p {
        let mut m = hbar_matrix::BoolMatrix::zeros(p);
        let mut i = half;
        while i < p {
            if i % (half * 2) == half {
                m.set(i, i - half, true);
            }
            i += half * 2;
        }
        stages.push(m);
        half *= 2;
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_matrix::{knowledge_closure, BoolMatrix};

    #[test]
    fn matches_paper_fig4() {
        // Figure 4, |P| = 4: S0 has 1→0 and 3→2; S1 has 2→0.
        let stages = tree_arrival(4);
        assert_eq!(stages.len(), 2);
        let s0 = BoolMatrix::from_rows(&[
            vec![false, false, false, false],
            vec![true, false, false, false],
            vec![false, false, false, false],
            vec![false, false, true, false],
        ]);
        let s1 = BoolMatrix::from_rows(&[
            vec![false, false, false, false],
            vec![false, false, false, false],
            vec![true, false, false, false],
            vec![false, false, false, false],
        ]);
        assert_eq!(stages[0].to_dense(), s0);
        assert_eq!(stages[1].to_dense(), s1);
    }

    #[test]
    fn stage_count_is_ceil_log2() {
        for (p, expect) in [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (22, 5), (64, 6)] {
            assert_eq!(tree_arrival(p).len(), expect, "p={p}");
        }
    }

    #[test]
    fn arrival_concentrates_all_knowledge_at_root() {
        for p in [2, 3, 5, 7, 8, 22, 33] {
            let k = knowledge_closure(p, &tree_arrival(p));
            for i in 0..p {
                assert!(k.get(i, 0), "p={p}: root missing arrival of {i}");
            }
        }
    }

    #[test]
    fn every_non_root_sends_exactly_once_total() {
        let p = 22;
        let stages = tree_arrival(p);
        let mut sends = vec![0usize; p];
        for s in &stages {
            for (i, _) in s.edges() {
                sends[i] += 1;
            }
        }
        assert_eq!(sends[0], 0);
        assert!(sends[1..].iter().all(|&c| c == 1), "{sends:?}");
    }

    #[test]
    fn odd_sizes_route_stragglers_correctly() {
        // p = 5: stage 0: 1→0, 3→2; stage 1: 2→0; stage 2: 4→0.
        let stages = tree_arrival(5);
        assert_eq!(stages.len(), 3);
        assert!(stages[0].get(1, 0) && stages[0].get(3, 2));
        assert!(stages[1].get(2, 0));
        assert!(stages[2].get(4, 0));
    }

    #[test]
    fn degenerate_sizes() {
        assert!(tree_arrival(0).is_empty());
        assert!(tree_arrival(1).is_empty());
    }
}
