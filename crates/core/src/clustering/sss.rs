//! Sparse spatial centers (SSS) clustering.
//!
//! Following Brisaboa et al. (SOFSEM 2008), as used by the paper: scan the
//! points in order; the first point becomes a center ("with rank 0 as a
//! member of the first cluster"); each subsequent point becomes a new
//! center iff its distance to every existing center exceeds
//! `sparseness × diameter`, and otherwise joins its nearest center's
//! cluster. The paper uses a sparseness parameter of 35 % of the diameter,
//! which yields node-level granularity on both of its test systems.

use hbar_topo::metric::DistanceMetric;
use std::fmt;

/// The paper's sparseness parameter: 35 % of the point-set diameter.
pub const SSS_DEFAULT_SPARSENESS: f64 = 0.35;

/// Typed failure of SSS clustering over an invalid metric.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterError {
    /// A distance consulted during seeding was NaN or infinite. The
    /// admission comparison is meaningless for such metrics (and the
    /// reference `min_by` formulation panicked on NaN mid-scan).
    NonFiniteDistance { from: usize, to: usize, value: f64 },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NonFiniteDistance { from, to, value } => write!(
                f,
                "non-finite distance {value} between ranks {from} and {to}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Reusable scratch for [`try_sss_clusters_with`]: the maintained
/// nearest-center arrays. One instance threaded through a tune amortizes
/// the allocations across every level of the cluster tree.
#[derive(Clone, Debug, Default)]
pub struct SssScratch {
    /// Per point (by position in `members`): distance to its nearest
    /// admitted center so far.
    min_dist: Vec<f64>,
    /// Per point: cluster index of that nearest center. Stored as `f64`
    /// so the absorb scan updates both arrays with uniform-width selects
    /// (the index is always an exactly representable small integer).
    nearest: Vec<f64>,
    /// The admitted center's distances to the points after it (see
    /// [`DistanceMetric::distances_from`]): as long as that tail, not as
    /// the metric's row, and reused across every center of every tree
    /// level once grown.
    dist_buf: Vec<f64>,
}

/// Clusters `members` (global ranks) by SSS over `metric`.
///
/// `diameter` is the reference diameter multiplied by `sparseness` to get
/// the center-admission threshold. Pass the *global* diameter to reproduce
/// the paper's two-level outcome (local distances never re-split); pass
/// `metric.diameter_of(members)` to re-scale per level and refine further.
///
/// Returns the clusters in center-discovery order; each cluster's first
/// element is its center. Every cluster is non-empty and the union is
/// exactly `members` (order within a cluster follows the input order).
///
/// # Panics
/// Panics if `members` is empty, if `sparseness` is not in `(0, 1]`, or if
/// the metric yields a non-finite distance (use [`try_sss_clusters`] for a
/// typed error instead).
pub fn sss_clusters(
    metric: &DistanceMetric<'_>,
    members: &[usize],
    sparseness: f64,
    diameter: f64,
) -> Vec<Vec<usize>> {
    try_sss_clusters(metric, members, sparseness, diameter).unwrap_or_else(|e| panic!("{e}"))
}

/// [`sss_clusters`] with metric validation: non-finite distances surface
/// as a [`ClusterError`] instead of a panic.
pub fn try_sss_clusters(
    metric: &DistanceMetric<'_>,
    members: &[usize],
    sparseness: f64,
    diameter: f64,
) -> Result<Vec<Vec<usize>>, ClusterError> {
    try_sss_clusters_with(
        metric,
        members,
        sparseness,
        diameter,
        &mut SssScratch::default(),
    )
}

/// [`try_sss_clusters`] against caller-owned scratch.
///
/// The classic SSS scan recomputes the distance from each point to every
/// existing center — O(P·k) *distance evaluations per point*. Maintaining
/// each point's nearest admitted center instead makes admission a single
/// array lookup, and each admitted center costs one scan over the points
/// after it: O(P·k) work overall for k centers.
pub fn try_sss_clusters_with(
    metric: &DistanceMetric<'_>,
    members: &[usize],
    sparseness: f64,
    diameter: f64,
    scratch: &mut SssScratch,
) -> Result<Vec<Vec<usize>>, ClusterError> {
    assert!(!members.is_empty(), "cannot cluster zero members");
    assert!(
        sparseness > 0.0 && sparseness <= 1.0,
        "sparseness must be in (0, 1], got {sparseness}"
    );
    let threshold = sparseness * diameter;
    let m = members.len();
    scratch.min_dist.clear();
    scratch.min_dist.resize(m, f64::INFINITY);
    scratch.nearest.clear();
    scratch.nearest.resize(m, 0.0);
    let mut clusters: Vec<Vec<usize>> = vec![vec![members[0]]];
    absorb_center(metric, members, 0, 0, scratch)?;
    for idx in 1..m {
        if scratch.min_dist[idx] > threshold {
            clusters.push(vec![members[idx]]);
            absorb_center(metric, members, idx, clusters.len() - 1, scratch)?;
        } else {
            clusters[scratch.nearest[idx] as usize].push(members[idx]);
        }
    }
    Ok(clusters)
}

/// Folds a newly admitted center into the nearest-center arrays: its
/// distances to the points after it, then one scan over those.
///
/// The update is branchless (compare + two same-width selects) so the
/// compiler can vectorize it; non-finite distances are detected by OR-ing
/// the raw exponent bits and located by a cold re-scan only when the
/// all-ones exponent pattern appeared. `<=` in the select keeps a later
/// center on ties, matching `Iterator::min_by` (which keeps the last
/// minimal element) in the reference scan.
fn absorb_center(
    metric: &DistanceMetric<'_>,
    members: &[usize],
    center_pos: usize,
    cluster_idx: usize,
    scratch: &mut SssScratch,
) -> Result<(), ClusterError> {
    let center = members[center_pos];
    let tail = &members[center_pos + 1..];
    metric.distances_from(center, tail, &mut scratch.dist_buf);
    let min_dist = &mut scratch.min_dist[center_pos + 1..];
    let nearest = &mut scratch.nearest[center_pos + 1..];
    let ci = cluster_idx as f64;
    // NaN/±inf carry an all-ones exponent; OR-ing the raw bits keeps the
    // check off the critical path (a false positive — finite distances
    // whose exponents only OR to all-ones — merely triggers the re-scan).
    let mut bits_or = 0u64;
    for ((&d, md), ne) in (scratch.dist_buf.iter()).zip(min_dist).zip(nearest) {
        bits_or |= d.to_bits();
        let closer = d <= *md;
        *md = if closer { d } else { *md };
        *ne = if closer { ci } else { *ne };
    }
    if bits_or >> 52 & 0x7ff == 0x7ff {
        // Cold path: locate the first offending pair in scan order.
        if let Some(at) = scratch.dist_buf.iter().position(|d| !d.is_finite()) {
            return Err(ClusterError::NonFiniteDistance {
                from: center,
                to: tail[at],
                value: scratch.dist_buf[at],
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_matrix::DenseMatrix;
    use hbar_topo::machine::MachineSpec;
    use hbar_topo::mapping::RankMapping;
    use hbar_topo::profile::TopologyProfile;

    fn cluster_machine(machine: &MachineSpec, mapping: &RankMapping, p: usize) -> Vec<Vec<usize>> {
        let prof = TopologyProfile::from_ground_truth_for(machine, mapping, p);
        let metric = DistanceMetric::from_costs(&prof.cost);
        sss_clusters(
            &metric,
            &(0..p).collect::<Vec<_>>(),
            SSS_DEFAULT_SPARSENESS,
            metric.diameter(),
        )
    }

    #[test]
    fn paper_parameters_yield_node_granularity_block() {
        // Cluster A fully populated, block mapping: 8 clusters of 8 ranks.
        let machine = MachineSpec::dual_quad_cluster(8);
        let clusters = cluster_machine(&machine, &RankMapping::Block, 64);
        assert_eq!(clusters.len(), 8);
        for (ci, cl) in clusters.iter().enumerate() {
            assert_eq!(cl.len(), 8, "cluster {ci}: {cl:?}");
            let expect: Vec<usize> = (ci * 8..(ci + 1) * 8).collect();
            assert_eq!(cl, &expect);
        }
    }

    #[test]
    fn paper_parameters_yield_node_granularity_round_robin() {
        // 22 ranks round-robin over 3 nodes (the Fig. 10 case): clusters
        // must group ranks by node, i.e. by r mod 3.
        let machine = MachineSpec::dual_quad_cluster(8);
        let clusters = cluster_machine(&machine, &RankMapping::RoundRobin, 22);
        assert_eq!(clusters.len(), 3);
        for cl in &clusters {
            let node = cl[0] % 3;
            assert!(cl.iter().all(|&r| r % 3 == node), "{cl:?}");
        }
        // Rank 0 seeds the first cluster.
        assert_eq!(clusters[0][0], 0);
    }

    #[test]
    fn hex_cluster_node_granularity() {
        let machine = MachineSpec::dual_hex_cluster(10);
        let clusters = cluster_machine(&machine, &RankMapping::RoundRobin, 120);
        assert_eq!(clusters.len(), 10);
        assert!(clusters.iter().all(|c| c.len() == 12));
    }

    #[test]
    fn lower_sparseness_refines_to_sockets() {
        // "Further lowering the sparseness parameter can refine the
        // clustering to cores on a chip" — on a single node, a threshold
        // below the cross-socket distance splits the two sockets.
        let machine = MachineSpec::dual_quad_cluster(1);
        let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::Block);
        let metric = DistanceMetric::from_costs(&prof.cost);
        let members: Vec<usize> = (0..8).collect();
        let coarse = sss_clusters(&metric, &members, 1.0, metric.diameter());
        assert_eq!(coarse.len(), 1);
        let fine = sss_clusters(&metric, &members, 0.3, metric.diameter());
        assert_eq!(fine.len(), 2);
        assert_eq!(fine[0], vec![0, 1, 2, 3]);
        assert_eq!(fine[1], vec![4, 5, 6, 7]);
    }

    #[test]
    fn union_is_input_and_clusters_disjoint() {
        let machine = MachineSpec::dual_quad_cluster(4);
        let clusters = cluster_machine(&machine, &RankMapping::RoundRobin, 27);
        let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..27).collect::<Vec<_>>());
    }

    #[test]
    fn single_member_single_cluster() {
        let d = DenseMatrix::new(1);
        let metric = hbar_topo::metric::DistanceMetric::from_matrix(d);
        let clusters = sss_clusters(&metric, &[0], 0.35, 0.0);
        assert_eq!(clusters, vec![vec![0]]);
    }

    #[test]
    #[should_panic(expected = "cannot cluster zero members")]
    fn empty_members_panics() {
        let metric = hbar_topo::metric::DistanceMetric::from_matrix(DenseMatrix::new(0));
        sss_clusters(&metric, &[], 0.35, 1.0);
    }

    #[test]
    #[should_panic(expected = "sparseness must be in")]
    fn invalid_sparseness_panics() {
        let metric = hbar_topo::metric::DistanceMetric::from_matrix(DenseMatrix::new(2));
        sss_clusters(&metric, &[0, 1], 0.0, 1.0);
    }

    #[test]
    fn non_finite_distance_is_a_typed_error() {
        // Regression: the min_by formulation panicked with a bare
        // "finite distances" expect on NaN. Both NaN and inf must now
        // surface as ClusterError, naming the offending pair.
        for bad in [f64::NAN, f64::INFINITY] {
            let mut d = DenseMatrix::filled(3, 1.0);
            d[(0, 2)] = bad;
            d[(2, 0)] = bad;
            let metric = hbar_topo::metric::DistanceMetric::from_matrix(d);
            let err = try_sss_clusters(&metric, &[0, 1, 2], 0.35, 1.0)
                .expect_err("non-finite distance must not cluster");
            let ClusterError::NonFiniteDistance { from, to, value } = err;
            assert_eq!((from, to), (0, 2));
            assert!(!value.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "non-finite distance")]
    fn panicking_wrapper_reports_non_finite() {
        let mut d = DenseMatrix::filled(2, 1.0);
        d[(0, 1)] = f64::NAN;
        d[(1, 0)] = f64::NAN;
        let metric = hbar_topo::metric::DistanceMetric::from_matrix(d);
        sss_clusters(&metric, &[0, 1], 0.35, 1.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let machine = MachineSpec::dual_quad_cluster(4);
        let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
        let metric = DistanceMetric::from_costs(&prof.cost);
        let mut scratch = SssScratch::default();
        for p in [5, 32, 17, 32] {
            let members: Vec<usize> = (0..p).collect();
            let dia = metric.diameter_of(&members);
            let reused = try_sss_clusters_with(&metric, &members, 0.35, dia, &mut scratch).unwrap();
            assert_eq!(reused, sss_clusters(&metric, &members, 0.35, dia));
        }
    }
}
