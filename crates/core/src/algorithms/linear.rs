//! The linear barrier (Fig. 2 of the paper).
//!
//! "The linear barrier uses a master rank to count arrivals, and signal
//! departure to every rank when the count is complete." Its arrival phase
//! is a single stage in which every non-master signals the master.

use hbar_matrix::SparseBoolMatrix;

/// Arrival phase of the linear barrier over local ranks `0..p`, master 0:
/// one stage, or none when `p < 2`.
pub fn linear_arrival(p: usize) -> Vec<SparseBoolMatrix> {
    if p < 2 {
        return Vec::new();
    }
    vec![SparseBoolMatrix::from_edges(p, (1..p).map(|i| (i, 0)))]
}

/// The generator as it filled bitset matrices: the oracle of
/// `sparse_generators_match_the_dense_ones`.
#[cfg(test)]
pub(super) fn linear_arrival_dense(p: usize) -> Vec<hbar_matrix::BoolMatrix> {
    if p < 2 {
        return Vec::new();
    }
    let mut s0 = hbar_matrix::BoolMatrix::zeros(p);
    for i in 1..p {
        s0.set(i, 0, true);
    }
    vec![s0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_matrix::BoolMatrix;

    #[test]
    fn matches_paper_fig2() {
        // Figure 2, |P| = 4: rows 1..3 have a single 1 in column 0.
        let stages = linear_arrival(4);
        assert_eq!(stages.len(), 1);
        let expected = BoolMatrix::from_rows(&[
            vec![false, false, false, false],
            vec![true, false, false, false],
            vec![true, false, false, false],
            vec![true, false, false, false],
        ]);
        assert_eq!(stages[0].to_dense(), expected);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(linear_arrival(0).is_empty());
        assert!(linear_arrival(1).is_empty());
        let two = linear_arrival(2);
        assert_eq!(two.len(), 1);
        assert!(two[0].get(1, 0));
        assert_eq!(two[0].popcount(), 1);
    }

    #[test]
    fn signal_count_is_p_minus_one() {
        for p in 2..20 {
            assert_eq!(linear_arrival(p)[0].popcount(), p - 1);
        }
    }
}
