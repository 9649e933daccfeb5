//! Symmetrized metric view of a topology profile.
//!
//! SSS clustering (paper §VII-A) "only requires that clustered points
//! reside in a metric space, i.e. non-zero distances separate non-identical
//! pairs symmetrically, and the triangle inequality holds. The use of this
//! method is our reason for requiring symmetry of the topological profile."
//!
//! [`DistanceMetric`] wraps a profile's `O` matrix as that metric: distance
//! between distinct ranks `i, j` is the symmetrized single-message cost
//! `(O_ij + O_ji) / 2`, and `d(i, i) = 0`.

use crate::compressed::ClassMap;
use crate::cost::CostMatrices;
use hbar_matrix::DenseMatrix;
use std::sync::Arc;

/// A finite metric space over ranks `0..p`, derived from measured costs.
///
/// Two backings exist: a dense `p × p` distance matrix, and a
/// class-compressed form sharing the [`ClassMap`] of the
/// [`crate::compressed::CompressedCostModel`] it was derived from (zero
/// extra memory) with one distance per class. Row access for clustering
/// scans goes through [`row_into`](Self::row_into), which decompresses a
/// classed row into caller-owned scratch and borrows a dense row
/// directly, so neither backing allocates per query.
#[derive(Clone, Debug)]
pub struct DistanceMetric {
    backing: Backing,
}

#[derive(Clone, Debug)]
enum Backing {
    Dense(DenseMatrix<f64>),
    Classed {
        /// `map.p()`.
        p: usize,
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

impl DistanceMetric {
    /// Builds the metric from cost matrices, symmetrizing `O` off-diagonals.
    ///
    /// Processed in square tiles so both the `O_ij` read and the
    /// transposed `O_ji` read stay cache-resident; the naive row-major
    /// `from_fn` pairs every row element with a full-column stride and
    /// was the single largest cost of tuning at P ≥ 1024. Each distance
    /// is written to `(i, j)` and `(j, i)` at once — IEEE addition is
    /// commutative, so the result is bit-identical to evaluating the
    /// two symmetric entries independently.
    pub fn from_costs(cost: &CostMatrices) -> Self {
        const TILE: usize = 64;
        let p = cost.p();
        let o = cost.o.as_slice();
        let mut data = vec![0.0f64; p * p];
        for bi in (0..p).step_by(TILE) {
            for bj in (bi..p).step_by(TILE) {
                let ei = (bi + TILE).min(p);
                let ej = (bj + TILE).min(p);
                for i in bi..ei {
                    for j in bj.max(i + 1)..ej {
                        let v = (o[i * p + j] + o[j * p + i]) / 2.0;
                        data[i * p + j] = v;
                        data[j * p + i] = v;
                    }
                }
            }
        }
        DistanceMetric {
            backing: Backing::Dense(DenseMatrix::from_vec(p, data)),
        }
    }

    /// Builds directly from a symmetric distance matrix (diagonal forced
    /// to zero).
    pub fn from_matrix(mut d: DenseMatrix<f64>) -> Self {
        d.symmetrize();
        for i in 0..d.n() {
            d[(i, i)] = 0.0;
        }
        DistanceMetric {
            backing: Backing::Dense(d),
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
                p: map.p(),
                map,
                table,
                off_diagonal,
            },
        }
    }

    /// Number of points.
    pub fn p(&self) -> usize {
        match &self.backing {
            Backing::Dense(d) => d.n(),
            Backing::Classed { p, .. } => *p,
        }
    }

    /// Distance between two ranks.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        match &self.backing {
            Backing::Dense(d) => d[(i, j)],
            Backing::Classed { map, table, .. } => table[map.class_at(i, j) as usize],
        }
    }

    /// All distances from rank `i`: a direct borrow for a dense metric,
    /// or a decompression of the class row into `scratch` (resized as
    /// needed, reused across calls — no steady-state allocation), the
    /// table row of `i`'s kind looked up once for the whole row.
    #[inline]
    pub fn row_into<'a>(&'a self, i: usize, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        match &self.backing {
            Backing::Dense(d) => d.row(i),
            Backing::Classed { p, map, table, .. } => {
                scratch.resize(*p, 0.0);
                map.row(i).values_into(table, scratch);
                &scratch[..]
            }
        }
    }

    /// The diameter: maximum pairwise distance (0 for fewer than 2 points).
    pub fn diameter(&self) -> f64 {
        match &self.backing {
            Backing::Dense(d) => d.max_off_diagonal().unwrap_or(0.0),
            Backing::Classed {
                table,
                off_diagonal,
                ..
            } => off_diagonal_distances(table, off_diagonal)
                .filter(|v| v.is_finite())
                .reduce(f64::max)
                .unwrap_or(0.0),
        }
    }

    /// Diameter restricted to a subset of ranks. Reads classes row by
    /// row (the row's kind looked up once), so no decompression buffer is
    /// needed; for the whole space `0..p` of a classed metric (the root of
    /// a cluster tree) it folds the same `max` over the classes present
    /// off the diagonal instead of over the `p²/2` cells that hold them.
    pub fn diameter_of(&self, members: &[usize]) -> f64 {
        let mut max = 0.0f64;
        match &self.backing {
            Backing::Dense(d) => {
                for (a, &i) in members.iter().enumerate() {
                    let row = d.row(i);
                    for &j in &members[a + 1..] {
                        max = max.max(row[j]);
                    }
                }
            }
            Backing::Classed {
                p,
                table,
                off_diagonal,
                ..
            } if members.len() == *p && members.iter().enumerate().all(|(i, &m)| i == m) => {
                max = off_diagonal_distances(table, off_diagonal).fold(max, f64::max);
            }
            Backing::Classed { map, table, .. } => {
                for (a, &i) in members.iter().enumerate() {
                    let row = map.row(i);
                    for &j in &members[a + 1..] {
                        max = max.max(table[row.class(j) as usize]);
                    }
                }
            }
        }
        max
    }

    /// Adopts an already-symmetrized, zero-diagonal distance matrix
    /// verbatim (no re-symmetrization pass) — the asymmetric-model
    /// fallback of the compressed backend, which computes entries with
    /// the exact `from_costs` arithmetic itself.
    pub(crate) fn from_dense_unchecked(d: DenseMatrix<f64>) -> Self {
        DistanceMetric {
            backing: Backing::Dense(d),
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

/// The distances a classed metric holds in off-diagonal cells, one per
/// class that occurs there.
fn off_diagonal_distances<'a>(
    table: &'a [f64],
    off_diagonal: &'a [bool],
) -> impl Iterator<Item = f64> + 'a {
    (table.iter().zip(off_diagonal)).filter_map(|(&v, &occurs)| occurs.then_some(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedCostModel;
    use crate::cost::CostProvider;
    use crate::machine::MachineSpec;
    use crate::mapping::RankMapping;
    use crate::profile::TopologyProfile;

    fn metric_for(machine: &MachineSpec) -> DistanceMetric {
        let prof = TopologyProfile::from_ground_truth(machine, &RankMapping::Block);
        DistanceMetric::from_costs(&prof.cost)
    }

    #[test]
    fn ground_truth_metric_is_valid() {
        let m = metric_for(&MachineSpec::dual_quad_cluster(3));
        assert!(m.validate(1e-9).is_empty());
    }

    #[test]
    fn diameter_is_internode_cost() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let gt = machine.ground_truth.clone();
        let m = metric_for(&machine);
        assert_eq!(
            m.diameter(),
            gt.effective_o(crate::machine::LinkClass::InterNode)
        );
    }

    #[test]
    fn diameter_of_subset() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let gt = machine.ground_truth.clone();
        let m = metric_for(&machine);
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

    /// The metric of a compressed model over a class grid, class `c` at
    /// distance `distances[c]` (0 for the classes on the diagonal).
    fn classed(p: usize, grid: &[u16], distances: &[f64]) -> DistanceMetric {
        let l = vec![0.0; distances.len()];
        CompressedCostModel::from_parts(p, grid.to_vec(), distances.to_vec(), l)
            .expect("a valid grid")
            .distance_metric()
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
        let classed = classed(p, &grid, &table);
        let dense = DistanceMetric::from_matrix(DenseMatrix::from_fn(p, |i, j| {
            table[grid[i * p + j] as usize]
        }));
        assert_eq!(classed.p(), dense.p());
        assert_eq!(classed.diameter(), dense.diameter());
        let (mut scratch, mut unused) = (Vec::new(), Vec::new());
        for i in 0..p {
            assert_eq!(
                classed.row_into(i, &mut scratch),
                dense.row_into(i, &mut unused)
            );
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
            let m = build(table);
            assert_eq!(
                m.diameter_of(&identity).to_bits(),
                m.diameter_of(&reordered).to_bits()
            );
            assert_eq!(m.diameter(), diameter);
        }
        assert_eq!(
            build([4.0, f64::INFINITY, 2.0, 0.0, 99.0]).diameter_of(&identity),
            f64::INFINITY
        );
    }

    #[test]
    fn row_into_borrows_dense_rows_without_copying() {
        let m = metric_for(&MachineSpec::dual_quad_cluster(2));
        let mut scratch = Vec::new();
        let row = m.row_into(3, &mut scratch).to_vec();
        assert_eq!(row, (0..m.p()).map(|j| m.dist(3, j)).collect::<Vec<_>>());
        assert!(scratch.is_empty(), "dense backing must not touch scratch");
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
