//! Heap-shaped k-ary tree reduction (extension beyond the paper's three
//! building blocks, per its future-work call to generalize the component
//! set).
//!
//! Ranks form an implicit heap: the parent of `i > 0` is `(i − 1) / k`.
//! Arrival proceeds level by level from the deepest: all ranks at depth
//! `d` signal their parents in the same stage. Wider trees trade stage
//! count against per-parent fan-in — exactly the kind of trade-off the
//! cost model can arbitrate per cluster.

use hbar_matrix::SparseBoolMatrix;

/// Arrival phases of the k-ary heap tree over local ranks `0..p`, root 0.
/// Returns no stages when `p < 2`.
///
/// # Panics
/// Panics if `k < 2`.
pub fn kary_arrival(p: usize, k: usize) -> Vec<SparseBoolMatrix> {
    assert!(k >= 2, "arity must be at least 2, got {k}");
    if p < 2 {
        return Vec::new();
    }
    // Depth of each rank in the implicit heap.
    let mut depth = vec![0usize; p];
    for i in 1..p {
        depth[i] = depth[(i - 1) / k] + 1;
    }
    let max_depth = *depth.iter().max().expect("p >= 2");
    (1..=max_depth)
        .rev()
        .map(|d| {
            let level = (1..p).filter(|&i| depth[i] == d);
            SparseBoolMatrix::from_edges(p, level.map(|i| (i, (i - 1) / k)))
        })
        .collect()
}

/// The generator as it filled bitset matrices: the oracle of
/// `sparse_generators_match_the_dense_ones`.
#[cfg(test)]
pub(super) fn kary_arrival_dense(p: usize, k: usize) -> Vec<hbar_matrix::BoolMatrix> {
    if p < 2 {
        return Vec::new();
    }
    let mut depth = vec![0usize; p];
    for i in 1..p {
        depth[i] = depth[(i - 1) / k] + 1;
    }
    let max_depth = *depth.iter().max().expect("p >= 2");
    let mut stages = Vec::with_capacity(max_depth);
    for d in (1..=max_depth).rev() {
        let mut m = hbar_matrix::BoolMatrix::zeros(p);
        for (i, &di) in depth.iter().enumerate().skip(1) {
            if di == d {
                m.set(i, (i - 1) / k, true);
            }
        }
        stages.push(m);
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_matrix::knowledge_closure;

    #[test]
    fn binary_heap_seven_ranks() {
        // Heap of 7: depth 2 = {3,4,5,6} signal {1,1,2,2}; depth 1 = {1,2} signal 0.
        let stages = kary_arrival(7, 2);
        assert_eq!(stages.len(), 2);
        assert!(stages[0].get(3, 1) && stages[0].get(4, 1));
        assert!(stages[0].get(5, 2) && stages[0].get(6, 2));
        assert!(stages[1].get(1, 0) && stages[1].get(2, 0));
    }

    #[test]
    fn arrival_concentrates_knowledge_at_root() {
        for (p, k) in [(2, 2), (9, 2), (10, 3), (22, 4), (17, 8)] {
            let kmat = knowledge_closure(p, &kary_arrival(p, k));
            for i in 0..p {
                assert!(kmat.get(i, 0), "p={p} k={k}: root missing {i}");
            }
        }
    }

    #[test]
    fn wider_arity_means_fewer_stages() {
        let p = 40;
        let s2 = kary_arrival(p, 2).len();
        let s4 = kary_arrival(p, 4).len();
        let s8 = kary_arrival(p, 8).len();
        assert!(s2 > s4 && s4 > s8, "{s2} {s4} {s8}");
    }

    #[test]
    fn high_arity_degenerates_to_linear() {
        // With k ≥ p−1 every non-root is a direct child of the root.
        let stages = kary_arrival(6, 5);
        assert_eq!(stages.len(), 1);
        for i in 1..6 {
            assert!(stages[0].get(i, 0));
        }
    }

    #[test]
    #[should_panic(expected = "arity must be at least 2")]
    fn arity_one_panics() {
        kary_arrival(4, 1);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(kary_arrival(0, 2).is_empty());
        assert!(kary_arrival(1, 2).is_empty());
    }
}
