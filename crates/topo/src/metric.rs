//! Symmetrized metric view of a topology profile.
//!
//! SSS clustering (paper §VII-A) "only requires that clustered points
//! reside in a metric space, i.e. non-zero distances separate non-identical
//! pairs symmetrically, and the triangle inequality holds. The use of this
//! method is our reason for requiring symmetry of the topological profile."
//!
//! [`DistanceMetric`] reads a profile's `O` matrix as that metric: distance
//! between distinct ranks `i, j` is the symmetrized single-message cost
//! `(O_ij + O_ji) / 2`, and `d(i, i) = 0`. It is computed as
//! `O_ij / 2 + O_ji / 2`, which is finite for every finite pair (the sum
//! first overflows at `f64::MAX`) and the same bits wherever the sum is
//! finite and the halves are normal. It is a view: nothing is
//! computed until a distance is asked for, and clustering asks for few —
//! one maximum over the pairs of each set it splits, and the distances
//! from each centre it admits to the members of that centre's own set.

use crate::compressed::ClassMap;
use crate::cost::CostMatrices;
use hbar_matrix::DenseMatrix;
use std::borrow::Cow;
use std::sync::Arc;

/// A finite metric space over ranks `0..p`, derived from measured costs.
///
/// Two backings exist, and neither holds a distance per pair: a square
/// matrix read symmetrized — the `O` matrix of the [`CostMatrices`] the
/// view borrows, or a matrix it owns ([`Self::from_matrix`]) — and a
/// class-compressed form sharing the [`ClassMap`] of the
/// [`crate::compressed::CompressedCostModel`] it was derived from, with
/// one distance per class.
#[derive(Clone, Debug)]
pub struct DistanceMetric<'a> {
    backing: Backing<'a>,
}

#[derive(Clone, Debug)]
enum Backing<'a> {
    /// `d(i, j) = (m_ij + m_ji) / 2` off the diagonal, `0` on it.
    Dense(Cow<'a, DenseMatrix<f64>>),
    Classed {
        map: Arc<ClassMap>,
        table: Vec<f64>,
        /// Per class: does it occur in an off-diagonal cell?
        off_diagonal: Vec<bool>,
    },
}

/// A violation found by [`DistanceMetric::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricViolation {
    /// `d(i, j) ≤ 0` for distinct `i, j`.
    NonPositive { i: usize, j: usize, d: f64 },
    /// `d(i, k) > d(i, j) + d(j, k)` beyond tolerance.
    TriangleInequality {
        i: usize,
        j: usize,
        k: usize,
        direct: f64,
        via: f64,
    },
}

impl<'a> DistanceMetric<'a> {
    /// The metric of `cost`: a borrow of its `O` matrix, symmetrized on
    /// read. Free to build; `cost` is not copied.
    pub fn from_costs(cost: &'a CostMatrices) -> Self {
        DistanceMetric {
            backing: Backing::Dense(Cow::Borrowed(&cost.o)),
        }
    }

    /// Builds directly from a distance matrix, read symmetrized and with
    /// a zero diagonal like any other (`d / 2 + d / 2 == d` bit for bit
    /// for a normal `d`, so a symmetric matrix is read as it stands).
    pub fn from_matrix(d: DenseMatrix<f64>) -> Self {
        DistanceMetric {
            backing: Backing::Dense(Cow::Owned(d)),
        }
    }

    /// Builds a class-compressed metric: `d(i, j) = table[class(i, j)]`.
    ///
    /// The map is shared with the compressed cost model that derives this
    /// metric, so the metric itself costs only the per-class table. Every
    /// diagonal class must map to `0.0`, the map must be symmetric, and
    /// `off_diagonal[c]` must say whether class `c` occurs in an
    /// off-diagonal cell (the diameter of the whole space is read off
    /// those flags, not off the cells) — the model guarantees all three
    /// by construction.
    pub(crate) fn from_classes(
        map: Arc<ClassMap>,
        table: Vec<f64>,
        off_diagonal: Vec<bool>,
    ) -> Self {
        assert_eq!(off_diagonal.len(), table.len(), "one flag per class");
        debug_assert!(
            map.diag().iter().all(|&c| table[c as usize] == 0.0),
            "diagonal classes must map to zero distance"
        );
        DistanceMetric {
            backing: Backing::Classed {
                map,
                table,
                off_diagonal,
            },
        }
    }

    /// Number of points.
    pub fn p(&self) -> usize {
        match &self.backing {
            Backing::Dense(m) => m.n(),
            Backing::Classed { map, .. } => map.p(),
        }
    }

    /// Distance between two ranks.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        match &self.backing {
            Backing::Dense(m) => symmetrized(m.as_slice(), m.n(), i, j),
            Backing::Classed { map, table, .. } => table[map.class_at(i, j) as usize],
        }
    }

    /// The distances from `centre` to each of `members`, in their order,
    /// into `out` (cleared first; no allocation once it has grown). What
    /// depends on `centre` alone — its matrix row, the table row of its
    /// kind — is looked up once, and no rank outside `members` is read.
    pub fn distances_from(&self, centre: usize, members: &[usize], out: &mut Vec<f64>) {
        out.clear();
        match &self.backing {
            Backing::Dense(m) => {
                let (o, p) = (m.as_slice(), m.n());
                out.extend(members.iter().map(|&j| symmetrized(o, p, centre, j)));
            }
            Backing::Classed { map, table, .. } => {
                let row = map.row(centre);
                out.extend(members.iter().map(|&j| table[row.class(j) as usize]));
            }
        }
    }

    /// The diameter: maximum finite pairwise distance (0 when there is
    /// none). A fold over the classes of a classed metric, over every
    /// pair of a dense one.
    pub fn diameter(&self) -> f64 {
        match &self.backing {
            Backing::Dense(m) => {
                let (o, p) = (m.as_slice(), m.n());
                finite_max((0..p).flat_map(|i| (i + 1..p).map(move |j| symmetrized(o, p, i, j))))
            }
            Backing::Classed {
                table,
                off_diagonal,
                ..
            } => finite_max(off_diagonal_distances(table, off_diagonal)),
        }
    }

    /// Diameter restricted to a subset of ranks: the maximum over its
    /// pairs, NaN distances skipped, never below zero. `f64::max` over a
    /// set does not depend on the order it is taken in, so a dense metric
    /// walks the pairs tile by tile (both `m_ij` and the transposed `m_ji`
    /// stay cache-resident) into independent maxima — for the whole space
    /// at the root of a cluster tree this is the one pass over `p²/2`
    /// cells clustering makes. A classed metric reads classes row by row
    /// (the row's kind looked up once), and for the whole space `0..p`
    /// folds the same `max` over the classes present off the diagonal
    /// instead of over the cells that hold them.
    pub fn diameter_of(&self, members: &[usize]) -> f64 {
        match &self.backing {
            Backing::Dense(m) => dense_diameter_of(m.as_slice(), m.n(), members),
            Backing::Classed {
                map,
                table,
                off_diagonal,
            } if members.len() == map.p() && members.iter().enumerate().all(|(i, &m)| i == m) => {
                off_diagonal_distances(table, off_diagonal).fold(0.0, f64::max)
            }
            Backing::Classed { map, table, .. } => {
                let mut max = 0.0f64;
                for (a, &i) in members.iter().enumerate() {
                    let row = map.row(i);
                    for &j in &members[a + 1..] {
                        max = max.max(table[row.class(j) as usize]);
                    }
                }
                max
            }
        }
    }

    /// Checks metric-space axioms up to a relative tolerance, returning
    /// every violation found. Measured profiles carry sampling noise, so a
    /// small tolerance (e.g. 0.05) is appropriate.
    pub fn validate(&self, rel_tolerance: f64) -> Vec<MetricViolation> {
        let p = self.p();
        let mut violations = Vec::new();
        for i in 0..p {
            for j in (i + 1)..p {
                if self.dist(i, j) <= 0.0 {
                    violations.push(MetricViolation::NonPositive {
                        i,
                        j,
                        d: self.dist(i, j),
                    });
                }
            }
        }
        for i in 0..p {
            for j in 0..p {
                if j == i {
                    continue;
                }
                for k in 0..p {
                    if k == i || k == j {
                        continue;
                    }
                    let direct = self.dist(i, k);
                    let via = self.dist(i, j) + self.dist(j, k);
                    if direct > via * (1.0 + rel_tolerance) {
                        violations.push(MetricViolation::TriangleInequality {
                            i,
                            j,
                            k,
                            direct,
                            via,
                        });
                    }
                }
            }
        }
        violations
    }
}

/// `d(i, j)` over the square matrix `o` of side `p`: the arithmetic every
/// dense read goes through, operands in `(low, high)` rank order, halved
/// before they are added so that no finite pair overflows.
#[inline]
fn symmetrized(o: &[f64], p: usize, i: usize, j: usize) -> f64 {
    if i == j {
        return 0.0;
    }
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    o[lo * p + hi] / 2.0 + o[hi * p + lo] / 2.0
}

/// [`DistanceMetric::diameter_of`] over a square matrix: pairs of member
/// positions `a < b`, tile by tile, four maxima side by side (one `max`
/// chain is bound by its latency, not by the reads). `v > max` is false
/// for a NaN `v`, which skips it as `f64::max` does; which operand the sum
/// takes first cannot change a maximum, so the pairs are read as they
/// come.
fn dense_diameter_of(o: &[f64], p: usize, members: &[usize]) -> f64 {
    const TILE: usize = 64;
    let mut lanes = [0.0f64; 4];
    let mut raise = |lane: usize, i: usize, j: usize, row: &[f64]| {
        let v = if i == j {
            0.0
        } else {
            row[j] / 2.0 + o[j * p + i] / 2.0
        };
        if v > lanes[lane] {
            lanes[lane] = v;
        }
    };
    for (ta, rows) in members.chunks(TILE).enumerate() {
        for (tb, cols) in members.chunks(TILE).enumerate().skip(ta) {
            for (a, &i) in rows.iter().enumerate() {
                let row = &o[i * p..][..p];
                let after = if tb == ta { &cols[a + 1..] } else { cols };
                let (fours, rest) = after.as_chunks::<4>();
                for js in fours {
                    for (lane, &j) in js.iter().enumerate() {
                        raise(lane, i, j, row);
                    }
                }
                for &j in rest {
                    raise(0, i, j, row);
                }
            }
        }
    }
    lanes.into_iter().fold(0.0, f64::max)
}

/// The largest finite distance, or 0 when there is none.
fn finite_max(distances: impl Iterator<Item = f64>) -> f64 {
    (distances.filter(|v| v.is_finite()).reduce(f64::max)).unwrap_or(0.0)
}

/// The distances a classed metric holds in off-diagonal cells, one per
/// class that occurs there.
fn off_diagonal_distances<'a>(
    table: &'a [f64],
    off_diagonal: &'a [bool],
) -> impl Iterator<Item = f64> + 'a {
    (table.iter().zip(off_diagonal)).filter_map(|(&v, &occurs)| occurs.then_some(v))
}

/// The frozen arithmetic of the materializing `from_costs` this view
/// replaced — every `(O_ij + O_ji) / 2` written out, zero diagonal — as
/// the reference the view's answers are compared with.
#[cfg(test)]
pub(crate) fn oracle_distances(cost: &CostMatrices) -> DenseMatrix<f64> {
    let p = cost.p();
    let mut d = DenseMatrix::new(p);
    for i in 0..p {
        for j in i + 1..p {
            let v = (cost.o[(i, j)] + cost.o[(j, i)]) / 2.0;
            d[(i, j)] = v;
            d[(j, i)] = v;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedCostModel;
    use crate::cost::CostProvider;
    use crate::machine::MachineSpec;
    use crate::mapping::RankMapping;
    use crate::profile::TopologyProfile;

    fn costs_for(machine: &MachineSpec) -> CostMatrices {
        TopologyProfile::from_ground_truth(machine, &RankMapping::Block).cost
    }

    #[test]
    fn ground_truth_metric_is_valid() {
        let cost = costs_for(&MachineSpec::dual_quad_cluster(3));
        assert!(DistanceMetric::from_costs(&cost).validate(1e-9).is_empty());
    }

    #[test]
    fn diameter_is_internode_cost() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let gt = machine.ground_truth.clone();
        let cost = costs_for(&machine);
        assert_eq!(
            DistanceMetric::from_costs(&cost).diameter(),
            gt.effective_o(crate::machine::LinkClass::InterNode)
        );
    }

    #[test]
    fn diameter_of_subset() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let gt = machine.ground_truth.clone();
        let cost = costs_for(&machine);
        let m = DistanceMetric::from_costs(&cost);
        // Ranks 0..8 are one node under block mapping: diameter = cross-socket.
        let node0: Vec<usize> = (0..8).collect();
        assert_eq!(
            m.diameter_of(&node0),
            gt.effective_o(crate::machine::LinkClass::CrossSocket)
        );
        // A single rank has zero diameter.
        assert_eq!(m.diameter_of(&[3]), 0.0);
    }

    #[test]
    fn asymmetric_costs_are_symmetrized() {
        let mut cost = CostMatrices::zeros(2);
        cost.o[(0, 1)] = 4.0;
        cost.o[(1, 0)] = 6.0;
        let m = DistanceMetric::from_costs(&cost);
        assert_eq!(m.dist(0, 1), 5.0);
        assert_eq!(m.dist(1, 0), 5.0);
        assert_eq!(m.dist(0, 0), 0.0);
    }

    /// Every answer of the view over an asymmetric `O` with NaN and
    /// infinite cells, against the oracle matrix — and past one tile of
    /// the diameter pass, with a member list that is neither sorted nor
    /// consecutive.
    #[test]
    fn dense_view_matches_the_oracle_matrix() {
        let p = 150;
        let mut cost = CostMatrices::zeros(p);
        for i in 0..p {
            for j in 0..p {
                cost.o[(i, j)] = ((i * 37 + j * 101) % 997) as f64 + 0.5;
            }
        }
        cost.o[(3, 140)] = f64::NAN;
        cost.o[(77, 5)] = f64::INFINITY;
        cost.o[(9, 8)] = f64::NEG_INFINITY;
        let oracle = oracle_distances(&cost);
        let view = DistanceMetric::from_costs(&cost);
        let owned = DistanceMetric::from_matrix(oracle.clone());
        let shuffled: Vec<usize> = (0..p).map(|k| (k * 67 + 11) % p).collect();
        let sparse: Vec<usize> = (0..p).rev().step_by(3).collect();
        let everyone: Vec<usize> = (0..p).collect();
        let mut out = Vec::new();
        for m in [&view, &owned] {
            for i in 0..p {
                m.distances_from(i, &shuffled, &mut out);
                for (&j, d) in shuffled.iter().zip(&out) {
                    assert_eq!(d.to_bits(), oracle[(i, j)].to_bits(), "({i},{j})");
                    assert_eq!(m.dist(i, j).to_bits(), oracle[(i, j)].to_bits());
                }
            }
            for members in [&everyone, &shuffled, &sparse] {
                let mut max = 0.0f64;
                for (a, &i) in members.iter().enumerate() {
                    for &j in &members[a + 1..] {
                        max = max.max(oracle[(i, j)]);
                    }
                }
                assert_eq!(m.diameter_of(members).to_bits(), max.to_bits());
            }
            assert_eq!(m.diameter_of(&everyone), f64::INFINITY);
            assert_eq!(m.diameter(), oracle.max_off_diagonal().unwrap());
        }
    }

    #[test]
    fn validate_flags_nonpositive() {
        let mut cost = CostMatrices::zeros(3);
        // Leave (0,1) at zero: non-positive distance.
        cost.o[(0, 2)] = 1.0;
        cost.o[(2, 0)] = 1.0;
        cost.o[(1, 2)] = 1.0;
        cost.o[(2, 1)] = 1.0;
        let m = DistanceMetric::from_costs(&cost);
        let v = m.validate(0.0);
        assert!(v
            .iter()
            .any(|x| matches!(x, MetricViolation::NonPositive { i: 0, j: 1, .. })));
    }

    /// A compressed model over a class grid, class `c` at distance
    /// `distances[c]` (0 for the classes on the diagonal).
    fn classed(p: usize, grid: &[u16], distances: &[f64]) -> CompressedCostModel {
        let l = vec![0.0; distances.len()];
        CompressedCostModel::from_parts(p, grid.to_vec(), distances.to_vec(), l)
            .expect("a valid grid")
    }

    /// A classed metric over a shared map must agree with the dense
    /// metric built from the decompressed matrix, for every accessor.
    #[test]
    fn classed_metric_matches_dense_equivalent() {
        // 3 ranks, 2 off-diagonal classes + 1 diagonal class.
        let p = 3;
        #[rustfmt::skip]
        let grid = [
            2u16, 0, 1,
            0, 2, 0,
            1, 0, 2,
        ];
        let table = [4.0, 9.0, 0.0];
        let model = classed(p, &grid, &table);
        let classed = model.distance_metric();
        let dense = DistanceMetric::from_matrix(DenseMatrix::from_fn(p, |i, j| {
            table[grid[i * p + j] as usize]
        }));
        assert_eq!(classed.p(), dense.p());
        assert_eq!(classed.diameter(), dense.diameter());
        let (mut by_class, mut by_cell) = (Vec::new(), Vec::new());
        for i in 0..p {
            for members in [vec![0, 1, 2], vec![2, 0], vec![i]] {
                classed.distances_from(i, &members, &mut by_class);
                dense.distances_from(i, &members, &mut by_cell);
                assert_eq!(by_class, by_cell);
            }
            for j in 0..p {
                assert_eq!(classed.dist(i, j), dense.dist(i, j));
            }
        }
        for members in [vec![0, 2], vec![0, 1, 2], vec![1]] {
            assert_eq!(classed.diameter_of(&members), dense.diameter_of(&members));
        }
        assert_eq!(classed.validate(1e-9), dense.validate(1e-9));
    }

    /// The whole-space diameter read off the class flags equals the scan
    /// over cells (which a reordered member list still takes), including
    /// for NaN and infinite distances and a class no cell uses.
    #[test]
    fn whole_space_diameter_matches_the_cell_scan() {
        let build = |table: [f64; 5]| {
            #[rustfmt::skip]
            let grid = [
                3u16, 0, 1, 0,
                0, 3, 0, 2,
                1, 0, 3, 0,
                0, 2, 0, 3,
            ];
            classed(4, &grid, &table)
        };
        let identity = [0, 1, 2, 3];
        let reordered = [1, 0, 2, 3];
        for (table, diameter) in [
            ([4.0, 9.0, 2.0, 0.0, 99.0], 9.0),
            ([4.0, f64::NAN, 2.0, 0.0, 99.0], 4.0),
            ([4.0, f64::INFINITY, 2.0, 0.0, 99.0], 4.0),
            ([f64::NAN, f64::NAN, f64::NAN, 0.0, 99.0], 0.0),
        ] {
            let model = build(table);
            let m = model.distance_metric();
            assert_eq!(
                m.diameter_of(&identity).to_bits(),
                m.diameter_of(&reordered).to_bits()
            );
            assert_eq!(m.diameter(), diameter);
        }
        assert_eq!(
            build([4.0, f64::INFINITY, 2.0, 0.0, 99.0])
                .distance_metric()
                .diameter_of(&identity),
            f64::INFINITY
        );
    }

    /// `O_ij = O_ji = f64::MAX` is a finite distance: the sum the
    /// symmetrisation once formed overflowed to infinity.
    #[test]
    fn a_pair_at_f64_max_is_a_finite_distance() {
        let mut cost = CostMatrices::zeros(3);
        cost.o[(0, 1)] = f64::MAX;
        cost.o[(1, 0)] = f64::MAX;
        cost.o[(1, 2)] = 1.0;
        let m = DistanceMetric::from_costs(&cost);
        assert_eq!(m.dist(0, 1), f64::MAX);
        assert_eq!(m.dist(1, 2), 0.5);
        assert_eq!(m.diameter(), f64::MAX);
        assert_eq!(m.diameter_of(&[2, 1, 0]), f64::MAX);
        #[rustfmt::skip]
        let grid = [
            2u16, 0, 1,
            0, 2, 1,
            1, 1, 2,
        ];
        let model = classed(3, &grid, &[f64::MAX, 1.0, 0.0]);
        let m = model.distance_metric();
        assert_eq!(m.dist(0, 1), f64::MAX);
        assert_eq!(m.diameter(), f64::MAX);
    }

    proptest::proptest! {
        /// Halving before adding is the old `(a + b) / 2` bit for bit
        /// wherever that sum is finite and the halves are normal, and is
        /// finite for every finite pair; the classed view of a symmetric
        /// model still reads what the dense view of its image reads.
        #[test]
        fn halved_sum_is_the_old_symmetrisation_and_views_agree(
            a_bits in proptest::prelude::any::<u64>(),
            b_bits in proptest::prelude::any::<u64>(),
            same_exponent in proptest::prelude::any::<bool>(),
        ) {
            const MANTISSA: u64 = (1 << 52) - 1;
            let a = f64::from_bits(a_bits >> 1);
            let b = if same_exponent {
                f64::from_bits((a.to_bits() & !MANTISSA) | (b_bits & MANTISSA))
            } else {
                f64::from_bits(b_bits >> 1)
            };
            proptest::prop_assume!(a.is_finite() && b.is_finite());
            let halved = a / 2.0 + b / 2.0;
            proptest::prop_assert!(halved.is_finite());
            if (a + b).is_finite() && (a / 2.0).is_normal() && (b / 2.0).is_normal() {
                proptest::prop_assert_eq!(halved.to_bits(), ((a + b) / 2.0).to_bits());
            }

            let p = 3;
            #[rustfmt::skip]
            let grid = [
                2u16, 0, 1,
                0, 2, 0,
                1, 0, 2,
            ];
            let table = [a, b, 0.0];
            let model = classed(p, &grid, &table);
            let classed = model.distance_metric();
            let dense = DistanceMetric::from_matrix(DenseMatrix::from_fn(p, |i, j| {
                table[grid[i * p + j] as usize]
            }));
            for i in 0..p {
                for j in 0..p {
                    proptest::prop_assert_eq!(classed.dist(i, j).to_bits(), dense.dist(i, j).to_bits());
                }
            }
            proptest::prop_assert_eq!(classed.diameter().to_bits(), dense.diameter().to_bits());
        }
    }

    #[test]
    fn validate_flags_triangle_violation() {
        let d = DenseMatrix::from_vec(3, vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0]);
        let m = DistanceMetric::from_matrix(d);
        let v = m.validate(0.0);
        assert!(v.iter().any(|x| matches!(
            x,
            MetricViolation::TriangleInequality { i: 0, k: 2, .. }
                | MetricViolation::TriangleInequality { i: 2, k: 0, .. }
        )));
        // With a huge tolerance it passes.
        assert!(m.validate(10.0).is_empty());
    }
}
