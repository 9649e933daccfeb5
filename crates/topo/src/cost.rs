//! The `O`/`L` cost matrices, the [`SendMode`] naming which of the
//! paper's Eq. 1 / Eq. 2 prices a send set (the equations themselves are
//! applied by `hbar-core`'s cost evaluator), the [`CostProvider`]
//! abstraction over dense and class-compressed backings, and the
//! versioned fingerprint of the dense matrices.

use crate::metric::DistanceMetric;
use hbar_matrix::DenseMatrix;
use serde::{Deserialize, Serialize};

/// Which of the paper's two send-cost equations applies to a send set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SendMode {
    /// Eq. 1: receivers may not yet have entered the operation, so the
    /// transmission pays the largest per-destination startup `max_k O_{i,J_k}`.
    General,
    /// Eq. 2: receivers are known to already await the signal (typical for
    /// departure phases), so only the local call overhead `O_ii` is paid
    /// before the per-message latencies.
    ReceiversAwaiting,
}

/// The two `P × P` matrices of the topological model (all values in seconds).
///
/// * `o[(i, j)]`, `i ≠ j` — single-message cost from `i` to `j`;
/// * `o[(i, i)]` — software overhead of a transmission-free call at `i`;
/// * `l[(i, j)]` — marginal cost of an additional simultaneous message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostMatrices {
    pub o: DenseMatrix<f64>,
    pub l: DenseMatrix<f64>,
}

impl CostMatrices {
    /// Creates zeroed matrices for `p` processes.
    pub fn zeros(p: usize) -> Self {
        CostMatrices {
            o: DenseMatrix::new(p),
            l: DenseMatrix::new(p),
        }
    }

    /// Number of processes.
    pub fn p(&self) -> usize {
        self.o.n()
    }

    /// Restriction of both matrices to `indices` (in the given order).
    pub fn submatrices(&self, indices: &[usize]) -> Self {
        CostMatrices {
            o: self.o.submatrix(indices),
            l: self.l.submatrix(indices),
        }
    }

    /// Symmetrizes both matrices in place (paper §IV-A assumes
    /// `O_ij = O_ji`; SSS clustering requires a symmetric distance).
    pub fn symmetrize(&mut self) {
        // Preserve the diagonal of O: it has different semantics (O_ii).
        let diag: Vec<f64> = (0..self.p()).map(|i| self.o[(i, i)]).collect();
        self.o.symmetrize();
        self.l.symmetrize();
        for (i, d) in diag.into_iter().enumerate() {
            self.o[(i, i)] = d;
        }
    }
}

/// Version of the [`cost_fingerprint`] function itself.
///
/// The fingerprint is a **public, persistent cache key**: `hbar serve`
/// keys its schedule cache on it, and operators may key on-disk caches
/// on it too. Its value for a given matrix is therefore a stability
/// contract — any change to the hash construction (lane count, prime,
/// absorption order, fold) MUST bump this constant so old caches are
/// invalidated wholesale instead of silently poisoned. The pinned
/// golden-fingerprint regression test in `hbar-core::cost` fails on any
/// silent change.
pub const COST_FINGERPRINT_VERSION: u32 = 1;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a that absorbs a 64-bit word or a byte string per step: the hash
/// behind member-set memo keys, serve cache keys, profile file names and
/// a class map's fingerprint ([`cost_fingerprint`] runs four lanes of
/// it). The field is the hash so far.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Absorbs one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs `bytes` one byte at a time.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }
}

/// FNV-1a over the raw bits of both cost matrices: the memo guard used
/// by `CostEvaluator::rebind` and the schedule-cache key of
/// `hbar serve` (fingerprint-equal matrices tune to bit-identical
/// schedules, so one cached artifact serves every requester). It is
/// [`CostFingerprint`] fed `O`, then `L`, then finished with `p`.
///
/// Stability: the mapping from matrix bits to fingerprint is frozen at
/// [`COST_FINGERPRINT_VERSION`]; see the version constant for the
/// contract. The fingerprint reads raw `f64` bits, so matrices that
/// differ only in NaN payload or `-0.0` vs `0.0` hash differently —
/// exactly right for a cache whose values must be bit-reproducible.
pub fn cost_fingerprint(cost: &CostMatrices) -> u64 {
    let mut fp = CostFingerprint::new();
    fp.matrix(cost.o.as_slice());
    fp.matrix(cost.l.as_slice());
    fp.finish(cost.p())
}

/// The [`cost_fingerprint`] of matrices absorbed one at a time, from
/// `f64`s or straight from their little-endian bytes, with no copy:
/// `hbar serve` keys a request off the wire without building a matrix.
///
/// Runs four independent FNV lanes over interleaved words and folds them
/// at the end: a single lane is a serial xor-multiply chain whose
/// multiply latency caps throughput at one word per ~3 cycles, which at
/// P = 1024 (2 M words) made the fingerprint itself a measurable slice
/// of every tune. Any changed word still changes its lane and therefore
/// the fold. Word `k` of each matrix goes to lane `k mod 4`: the lane
/// index restarts with every matrix, which matters when `p²` is odd.
#[derive(Clone, Copy, Debug)]
pub struct CostFingerprint {
    lanes: [u64; 4],
}

impl Default for CostFingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl CostFingerprint {
    /// The fingerprint of nothing absorbed yet.
    pub fn new() -> Self {
        CostFingerprint {
            lanes: [
                FNV_OFFSET ^ 1,
                FNV_OFFSET ^ 2,
                FNV_OFFSET ^ 3,
                FNV_OFFSET ^ 4,
            ],
        }
    }

    /// Absorbs one matrix's entries, row-major.
    pub fn matrix(&mut self, data: &[f64]) {
        let (quads, tail) = data.as_chunks::<4>();
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for q in quads {
            a = (a ^ q[0].to_bits()).wrapping_mul(FNV_PRIME);
            b = (b ^ q[1].to_bits()).wrapping_mul(FNV_PRIME);
            c = (c ^ q[2].to_bits()).wrapping_mul(FNV_PRIME);
            d = (d ^ q[3].to_bits()).wrapping_mul(FNV_PRIME);
        }
        self.lanes = [a, b, c, d];
        for (lane, v) in self.lanes.iter_mut().zip(tail) {
            *lane = (*lane ^ v.to_bits()).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one matrix given as its row-major little-endian `f64`
    /// bytes (a length that is not a multiple of 8 leaves its tail
    /// unread), exactly as [`matrix`](Self::matrix) absorbs the decoded
    /// values. Returns whether every entry is finite and `≥ 0.0`
    /// (`-0.0` included), checked in the same pass.
    pub fn matrix_le_bytes(&mut self, bytes: &[u8]) -> bool {
        // Compared as floats, which the vector unit does for two or four
        // words at a time: NaN fails both tests, `-0.0 >= 0.0` holds.
        // One flag per lane keeps the check off the hash's critical path.
        #[inline(always)]
        fn bad(w: u64) -> bool {
            let v = f64::from_bits(w);
            !(0.0..=f64::MAX).contains(&v)
        }
        let (words, _) = bytes.as_chunks::<8>();
        let (quads, tail) = words.as_chunks::<4>();
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let mut flags = [false; 4];
        for q in quads {
            let w = q.map(u64::from_le_bytes);
            for (flag, &w) in flags.iter_mut().zip(&w) {
                *flag |= bad(w);
            }
            a = (a ^ w[0]).wrapping_mul(FNV_PRIME);
            b = (b ^ w[1]).wrapping_mul(FNV_PRIME);
            c = (c ^ w[2]).wrapping_mul(FNV_PRIME);
            d = (d ^ w[3]).wrapping_mul(FNV_PRIME);
        }
        self.lanes = [a, b, c, d];
        for ((lane, flag), w) in self.lanes.iter_mut().zip(&mut flags).zip(tail) {
            let w = u64::from_le_bytes(*w);
            *flag |= bad(w);
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
        flags == [false; 4]
    }

    /// The fingerprint of the matrices absorbed so far, for `p` ranks.
    pub fn finish(self, p: usize) -> u64 {
        let mut h = FNV_OFFSET;
        for v in [
            p as u64,
            self.lanes[0],
            self.lanes[1],
            self.lanes[2],
            self.lanes[3],
        ] {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// Read access to a `P × P` topological cost model, independent of how
/// the entries are stored.
///
/// Two backings exist: the dense [`CostMatrices`] (16 bytes per pair)
/// and the class-compressed [`CompressedCostModel`]
/// (2 bytes per pair plus per-class tables)
/// [`crate::compressed::CompressedCostModel`]. The tuner, clustering and
/// composer are generic over this trait, so a tune monomorphizes to the
/// exact same index loads it performed before the abstraction existed
/// when handed dense matrices, and to two loads (class id, table entry)
/// when handed the compressed model.
pub trait CostProvider {
    /// Number of processes.
    fn p(&self) -> usize;

    /// `O_ij` (`i ≠ j`: single-message cost; `i = j`: call overhead).
    fn o_at(&self, i: usize, j: usize) -> f64;

    /// `L_ij`, the marginal cost of one more simultaneous message.
    fn l_at(&self, i: usize, j: usize) -> f64;

    /// A hash of what this storage holds. Equal fingerprints mean
    /// bit-equal entries (up to a 64-bit collision), which is all a memo
    /// guard needs. The converse holds only within one storage and one
    /// encoding: the dense matrices and a compressed model of the same
    /// image fingerprint differently, as do two compressed models that
    /// number their kinds differently or differ in a table cell no pair
    /// reads — a harmless memo miss, never a wrong hit.
    fn fingerprint(&self) -> u64;

    /// The symmetrized SSS clustering metric over this model: a view, not
    /// a copy. Over dense matrices it borrows `O` and symmetrizes on read
    /// (O(1) to build); over a compressed model it shares the class map
    /// and holds one distance per class (O(classes) to build). Only a
    /// compressed model whose map is asymmetric pays for a decompressed
    /// `O`, which the view then owns.
    fn distance_metric(&self) -> DistanceMetric<'_>;
}

impl CostProvider for CostMatrices {
    #[inline]
    fn p(&self) -> usize {
        self.o.n()
    }

    #[inline]
    fn o_at(&self, i: usize, j: usize) -> f64 {
        self.o[(i, j)]
    }

    #[inline]
    fn l_at(&self, i: usize, j: usize) -> f64 {
        self.l[(i, j)]
    }

    fn fingerprint(&self) -> u64 {
        cost_fingerprint(self)
    }

    fn distance_metric(&self) -> DistanceMetric<'_> {
        DistanceMetric::from_costs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CostMatrices {
        // 3 ranks: O off-diagonal row 0 = [_, 10, 50], L row 0 = [_, 1, 2].
        let o = DenseMatrix::from_vec(3, vec![0.5, 10.0, 50.0, 10.0, 0.5, 30.0, 50.0, 30.0, 0.5]);
        let l = DenseMatrix::from_vec(3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 3.0, 2.0, 3.0, 0.0]);
        CostMatrices { o, l }
    }

    #[test]
    fn symmetrize_preserves_oii() {
        let mut c = sample();
        c.o[(0, 1)] = 8.0; // introduce asymmetry
        c.symmetrize();
        assert_eq!(c.o[(0, 1)], 9.0);
        assert_eq!(c.o[(1, 0)], 9.0);
        assert_eq!(c.o[(0, 0)], 0.5, "diagonal must be preserved");
    }

    #[test]
    fn submatrices_restrict_consistently() {
        let c = sample();
        let s = c.submatrices(&[2, 0]);
        assert_eq!(s.p(), 2);
        assert_eq!(s.o[(0, 1)], 50.0);
        assert_eq!(s.l[(0, 1)], 2.0);
        assert_eq!(s.o[(0, 0)], 0.5);
    }

    #[test]
    fn provider_view_of_dense_matches_indexing() {
        let c = sample();
        assert_eq!(CostProvider::p(&c), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.o_at(i, j).to_bits(), c.o[(i, j)].to_bits());
                assert_eq!(c.l_at(i, j).to_bits(), c.l[(i, j)].to_bits());
            }
        }
        assert_eq!(c.fingerprint(), cost_fingerprint(&c));
    }

    /// The streamed fingerprint, fed decoded values or their wire bytes,
    /// is `cost_fingerprint` for every `p²` residue mod 4, and a flipped
    /// bit in either matrix reaches it.
    #[test]
    fn streamed_fingerprint_matches_cost_fingerprint() {
        fn le_bytes(m: &DenseMatrix<f64>) -> Vec<u8> {
            m.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
        }
        fn streamed(c: &CostMatrices) -> (u64, u64) {
            let mut from_values = CostFingerprint::new();
            from_values.matrix(c.o.as_slice());
            from_values.matrix(c.l.as_slice());
            let mut from_bytes = CostFingerprint::new();
            assert!(from_bytes.matrix_le_bytes(&le_bytes(&c.o)));
            assert!(from_bytes.matrix_le_bytes(&le_bytes(&c.l)));
            (from_values.finish(c.p()), from_bytes.finish(c.p()))
        }
        for p in 1..=9 {
            let mut c = CostMatrices {
                o: DenseMatrix::from_fn(p, |i, j| 1e-6 * (1 + i * p + j) as f64),
                l: DenseMatrix::from_fn(p, |i, j| 1e-7 * (3 + j * p + i) as f64),
            };
            let fp = cost_fingerprint(&c);
            assert_eq!(streamed(&c), (fp, fp), "p = {p}");
            let last = (p - 1, p - 1);
            c.o[last] = f64::from_bits(c.o[last].to_bits() ^ 1);
            let o_flipped = cost_fingerprint(&c);
            assert_ne!(o_flipped, fp, "p = {p}");
            assert_eq!(streamed(&c), (o_flipped, o_flipped), "p = {p}");
            c.l[last] = f64::from_bits(c.l[last].to_bits() ^ 1);
            let l_flipped = cost_fingerprint(&c);
            assert_ne!(l_flipped, o_flipped, "p = {p}");
            assert_eq!(streamed(&c), (l_flipped, l_flipped), "p = {p}");
        }
    }

    /// The byte absorber's check: finite and `≥ 0.0`, `-0.0` included.
    #[test]
    fn byte_absorber_flags_non_finite_and_negative_entries() {
        let check = |v: f64| {
            let bytes: Vec<u8> = [0.5, v, 2.0]
                .iter()
                .flat_map(|x: &f64| x.to_le_bytes())
                .collect();
            CostFingerprint::new().matrix_le_bytes(&bytes)
        };
        for good in [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, 1.0, f64::MAX] {
            assert!(check(good), "{good:e} is a valid cost");
        }
        for bad in [
            -5e-324,
            -1.0,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            assert!(!check(bad), "{bad:e} is not a valid cost");
        }
        // Every position of a four-word chunk and of the tail is checked.
        for at in 0..7 {
            let mut row = [1.0f64; 7];
            row[at] = -1.0;
            let bytes: Vec<u8> = row.iter().flat_map(|x| x.to_le_bytes()).collect();
            assert!(
                !CostFingerprint::new().matrix_le_bytes(&bytes),
                "entry {at}"
            );
        }
    }
}
