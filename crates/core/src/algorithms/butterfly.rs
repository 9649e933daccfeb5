//! Butterfly (pairwise-exchange) barrier (extension).
//!
//! For `p = 2^m` participants, stage `s` pairs each rank `i` with
//! `i XOR 2^s`; both send, so after `m` stages everyone holds complete
//! knowledge — like dissemination, no departure phase is needed. Compared
//! to dissemination it doubles per-stage traffic on the same links but
//! keeps exchanges symmetric, which some fabrics reward; the cost model
//! decides whether that is ever profitable here.

use hbar_matrix::SparseBoolMatrix;

/// All stages of the butterfly barrier over local ranks `0..p`.
/// Returns no stages when `p < 2`.
///
/// # Panics
/// Panics if `p` is not a power of two (use
/// [`Algorithm::applicable`](crate::Algorithm::applicable) to pre-check).
pub fn butterfly_full(p: usize) -> Vec<SparseBoolMatrix> {
    if p < 2 {
        return Vec::new();
    }
    assert!(
        p.is_power_of_two(),
        "butterfly requires a power-of-two participant count, got {p}"
    );
    let mut stages = Vec::new();
    let mut bit = 1usize;
    while bit < p {
        stages.push(SparseBoolMatrix::from_edges(
            p,
            (0..p).map(|i| (i, i ^ bit)),
        ));
        bit <<= 1;
    }
    stages
}

/// The generator as it filled bitset matrices: the oracle of
/// `sparse_generators_match_the_dense_ones`.
#[cfg(test)]
pub(super) fn butterfly_dense(p: usize) -> Vec<hbar_matrix::BoolMatrix> {
    let mut stages = Vec::new();
    let mut bit = 1usize;
    while bit < p {
        let mut m = hbar_matrix::BoolMatrix::zeros(p);
        for i in 0..p {
            m.set(i, i ^ bit, true);
        }
        stages.push(m);
        bit <<= 1;
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_matrix::knowledge_closure;

    #[test]
    fn stages_are_symmetric_exchanges() {
        for stage in butterfly_full(8) {
            assert_eq!(stage, stage.transpose());
            for i in 0..8 {
                assert_eq!(stage.row(i).len(), 1);
            }
        }
    }

    #[test]
    fn synchronizes_fully_without_departure() {
        for p in [2, 4, 8, 16, 64] {
            let k = knowledge_closure(p, &butterfly_full(p));
            assert!(k.is_all_true(), "p={p}");
        }
    }

    #[test]
    fn stage_count_is_log2() {
        assert_eq!(butterfly_full(2).len(), 1);
        assert_eq!(butterfly_full(16).len(), 4);
        assert_eq!(butterfly_full(128).len(), 7);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_panics() {
        butterfly_full(6);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(butterfly_full(0).is_empty());
        assert!(butterfly_full(1).is_empty());
    }
}
