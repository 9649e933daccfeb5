//! Bitset-backed square boolean matrices.
//!
//! Rows are stored as contiguous `u64` words. A stage is a signal list
//! ([`SparseBoolMatrix`]); the dense bitset holds the Eq. 3 knowledge
//! matrix, which [`BoolMatrix::accumulate_sparse_product`] advances one
//! stage at a time.

use crate::SparseBoolMatrix;
use std::fmt;

/// A square boolean matrix stored as packed 64-bit words per row.
///
/// The entry `(row, col)` is interpreted throughout this workspace as
/// "`row` signals `col`" (an edge of a barrier dependency graph layer).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BoolMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

/// Words per row of an `n × n` matrix (at least one, also for `n = 0`).
pub(crate) fn words_per_row_of(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

impl BoolMatrix {
    /// Creates the `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        let words_per_row = words_per_row_of(n);
        BoolMatrix {
            n,
            words_per_row,
            bits: vec![0; words_per_row * n],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from an edge list of `(from, to)` pairs.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut m = Self::zeros(n);
        for &(i, j) in edges {
            m.set(i, j, true);
        }
        m
    }

    /// Builds a matrix from nested boolean rows (row-major), mainly for
    /// tests and doc examples mirroring the paper's figures.
    ///
    /// # Panics
    /// Panics if the rows do not form a square matrix.
    pub fn from_rows(rows: &[Vec<bool>]) -> Self {
        let n = rows.len();
        let mut m = Self::zeros(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has length {} != {n}", row.len());
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * self.words_per_row;
        start..start + self.words_per_row
    }

    /// Borrow of row `i`'s words.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.bits[self.row_range(i)]
    }

    /// Reads entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of range {}",
            self.n
        );
        self.bits[i * self.words_per_row + j / 64] >> (j % 64) & 1 == 1
    }

    /// Writes entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of range {}",
            self.n
        );
        let w = &mut self.bits[i * self.words_per_row + j / 64];
        if v {
            *w |= 1 << (j % 64);
        } else {
            *w &= !(1 << (j % 64));
        }
    }

    /// Returns true if every entry is set — the paper's criterion for a
    /// signal-pattern sequence to constitute a barrier (all processes know
    /// of all arrivals).
    pub fn is_all_true(&self) -> bool {
        (0..self.n).all(|i| self.row_is_full(i))
    }

    /// Returns true if every entry of row `i` is set, comparing whole
    /// words against the all-ones pattern instead of popcounting.
    #[inline]
    pub fn row_is_full(&self, i: usize) -> bool {
        let row = self.row(i);
        let full_words = self.n / 64;
        row[..full_words].iter().all(|&w| w == !0)
            && (self.n.is_multiple_of(64) || row[full_words] == (1u64 << (self.n % 64)) - 1)
    }

    /// Returns true if no entry is set (a no-op stage).
    pub fn is_zero(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Number of set entries in row `i` (out-degree of `i` in this layer).
    pub fn row_popcount(&self, i: usize) -> usize {
        self.row(i).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total number of set entries (signals in this stage).
    pub fn popcount(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over set columns of row `i`, ascending.
    pub fn row_iter(&self, i: usize) -> RowIter<'_> {
        RowIter {
            words: self.row(i),
            word_idx: 0,
            current: self.row(i).first().copied().unwrap_or(0),
            n: self.n,
        }
    }

    /// Materializes the set columns of row `i`, ascending, into `out`
    /// (clearing it first).
    ///
    /// This is the allocation-free analogue of `row_iter(i).collect()`:
    /// hot prediction paths call it with a reused buffer, and the scan
    /// works a whole `u64` word at a time.
    pub fn row_targets_into(&self, i: usize, out: &mut Vec<usize>) {
        out.clear();
        for (w_idx, &word) in self.row(i).iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                let idx = w_idx * 64 + bit;
                // Bits beyond n should never be set, but guard anyway.
                if idx < self.n {
                    out.push(idx);
                }
            }
        }
    }

    /// Iterator over all set `(row, col)` pairs in row-major order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| self.row_iter(i).map(move |j| (i, j)))
    }

    /// Transpose. Barrier departure phases are the transposed arrival
    /// matrices applied in reverse order (paper §V-B).
    ///
    /// Works on 64×64 bit tiles: gather one word-column of up to 64 rows,
    /// transpose the tile in registers, scatter it to one word-column of
    /// the result. All-zero tiles (the common case for sparse stage
    /// matrices) are skipped after the gather.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.n);
        self.transpose_onto_zeros(&mut t);
        t
    }

    /// [`BoolMatrix::transpose`] into a caller-provided matrix whose
    /// storage is reused (it is resized and cleared first).
    pub fn transpose_into(&self, out: &mut Self) {
        out.reset_zeros(self.n);
        self.transpose_onto_zeros(out);
    }

    /// The tile loop behind the transposes; `t` must be the `n × n` zero
    /// matrix, because all-zero tiles and words are not written.
    fn transpose_onto_zeros(&self, t: &mut Self) {
        let wpr = self.words_per_row;
        let word_blocks = self.n.div_ceil(64);
        let mut tile = [0u64; 64];
        for bi in 0..word_blocks {
            let rows = (self.n - bi * 64).min(64);
            for bj in 0..word_blocks {
                let mut any = 0u64;
                for (r, slot) in tile[..rows].iter_mut().enumerate() {
                    let w = self.bits[(bi * 64 + r) * wpr + bj];
                    *slot = w;
                    any |= w;
                }
                if any == 0 {
                    continue;
                }
                tile[rows..].fill(0);
                transpose64(&mut tile);
                let cols = (self.n - bj * 64).min(64);
                for (c, &w) in tile[..cols].iter().enumerate() {
                    if w != 0 {
                        t.bits[(bj * 64 + c) * wpr + bi] = w;
                    }
                }
            }
        }
    }

    /// Accumulating product with a sparse right operand:
    /// `out |= self · stage`, driven from the stage's signal list.
    ///
    /// The Eq. 3 update `K_a = K_{a-1} + K_{a-1}·S_a` is one call with
    /// `out` holding a copy of `K_{a-1}` and `self` the snapshot it was
    /// copied from. Row `a` of `K` stays in cache while every sender of
    /// the stage is tested against it: `n · senders` bit tests plus one
    /// bit set per signal that carries something, and no scan of `n²`
    /// stage bits.
    pub fn accumulate_sparse_product(&self, stage: &SparseBoolMatrix, out: &mut Self) {
        assert_eq!(
            self.n,
            stage.n(),
            "dimension mismatch {} vs {}",
            self.n,
            stage.n()
        );
        assert_eq!(self.n, out.n, "dimension mismatch {} vs {}", self.n, out.n);
        for (known, acc) in self
            .bits
            .chunks_exact(self.words_per_row)
            .zip(out.bits.chunks_exact_mut(self.words_per_row))
        {
            for (i, targets) in stage.sends() {
                if known[i / 64] >> (i % 64) & 1 == 1 {
                    for &j in targets {
                        acc[j as usize / 64] |= 1 << (j % 64);
                    }
                }
            }
        }
    }

    /// Overwrites `self` with a copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Self) {
        self.n = src.n;
        self.words_per_row = src.words_per_row;
        self.bits.clear();
        self.bits.extend_from_slice(&src.bits);
    }

    /// Resets to the `n × n` zero matrix, reusing the allocation.
    pub fn reset_zeros(&mut self, n: usize) {
        self.n = n;
        self.words_per_row = words_per_row_of(n);
        self.bits.clear();
        self.bits.resize(self.words_per_row * n, 0);
    }

    /// Resets to the `n × n` identity, reusing the allocation.
    pub fn reset_identity(&mut self, n: usize) {
        self.reset_zeros(n);
        for i in 0..n {
            self.bits[i * self.words_per_row + i / 64] |= 1 << (i % 64);
        }
    }

    /// Words-per-row stride of the packed representation.
    #[inline]
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Mutable borrow of row `i`'s words.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u64] {
        let r = self.row_range(i);
        &mut self.bits[r]
    }
}

/// In-place transpose of a 64×64 bit tile stored as 64 words, bit `c` of
/// word `r` holding element `(r, c)` (LSB-first, matching [`BoolMatrix`]).
///
/// Classic recursive block-swap: at each level, the quadrant with row bit
/// `j` clear / column bit `j` set trades places with its mirror.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Iterator over the set bits of one row.
pub struct RowIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    n: usize,
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * 64 + bit;
                if idx < self.n {
                    return Some(idx);
                }
                // Bits beyond n should never be set, but guard anyway.
                continue;
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl fmt::Debug for BoolMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BoolMatrix {}x{} [", self.n, self.n)?;
        for i in 0..self.n {
            write!(f, "  ")?;
            for j in 0..self.n {
                write!(f, "{}", if self.get(i, j) { '1' } else { '0' })?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BoolMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", if self.get(i, j) { '1' } else { '0' })?;
            }
            if i + 1 < self.n {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_zero() {
        let m = BoolMatrix::zeros(5);
        assert!(m.is_zero());
        assert!(!m.is_all_true());
        assert_eq!(m.popcount(), 0);
    }

    #[test]
    fn identity_diagonal() {
        let m = BoolMatrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), i == j);
            }
        }
        assert_eq!(m.popcount(), 4);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BoolMatrix::zeros(70); // spans two words per row
        m.set(69, 69, true);
        m.set(69, 0, true);
        m.set(0, 64, true);
        assert!(m.get(69, 69));
        assert!(m.get(69, 0));
        assert!(m.get(0, 64));
        assert!(!m.get(0, 63));
        m.set(69, 69, false);
        assert!(!m.get(69, 69));
    }

    #[test]
    fn row_iter_crosses_word_boundary() {
        let mut m = BoolMatrix::zeros(130);
        for j in [0, 63, 64, 127, 128, 129] {
            m.set(1, j, true);
        }
        let cols: Vec<usize> = m.row_iter(1).collect();
        assert_eq!(cols, vec![0, 63, 64, 127, 128, 129]);
    }

    #[test]
    fn row_targets_into_matches_row_iter() {
        let mut m = BoolMatrix::zeros(130);
        for j in [0, 63, 64, 127, 128, 129] {
            m.set(1, j, true);
        }
        let mut buf = vec![99, 98]; // stale contents must be discarded
        m.row_targets_into(1, &mut buf);
        assert_eq!(buf, m.row_iter(1).collect::<Vec<_>>());
        m.row_targets_into(0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn transpose_involution() {
        let m = BoolMatrix::from_edges(9, &[(0, 1), (1, 2), (8, 0), (4, 4)]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn linear_barrier_matrices_from_paper_fig2() {
        // Figure 2: S0 has ranks 1..3 signalling rank 0; S1 = S0^T.
        let s0 = BoolMatrix::from_rows(&[
            vec![false, false, false, false],
            vec![true, false, false, false],
            vec![true, false, false, false],
            vec![true, false, false, false],
        ]);
        let s1 = s0.transpose();
        for j in 1..4 {
            assert!(s1.get(0, j));
        }
        assert_eq!(s1.row_popcount(0), 3);
    }

    #[test]
    fn display_renders_grid() {
        let m = BoolMatrix::from_edges(2, &[(0, 1)]);
        assert_eq!(format!("{m}"), "0 1\n0 0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BoolMatrix::zeros(3).get(3, 0);
    }

    #[test]
    fn zero_dimension_matrix() {
        let m = BoolMatrix::zeros(0);
        assert!(m.is_zero());
        // An empty matrix vacuously satisfies "all true".
        assert!(m.is_all_true());
        assert_eq!(m.edges().count(), 0);
    }

    /// Deterministic pseudo-random edge set, dense enough to exercise every
    /// word of every row at the given size.
    fn scrambled(n: usize, seed: u64) -> BoolMatrix {
        let mut m = BoolMatrix::zeros(n);
        let mut x = seed | 1;
        for i in 0..n {
            for j in 0..n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if x >> 61 == 0 {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    #[test]
    fn transpose_matches_get_swap_across_word_boundaries() {
        for n in [1, 5, 63, 64, 65, 128, 130] {
            let m = scrambled(n, n as u64);
            let t = m.transpose();
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(m.get(i, j), t.get(j, i), "n={n} at ({i},{j})");
                }
            }
            assert_eq!(t.transpose(), m, "involution failed for n={n}");
            let mut reused = BoolMatrix::identity(n + 3); // stale size and bits
            m.transpose_into(&mut reused);
            assert_eq!(reused, t, "transpose_into diverged for n={n}");
        }
    }

    #[test]
    fn row_is_full_checks_tail_word() {
        for n in [1, 64, 65, 130] {
            let mut m = BoolMatrix::zeros(n);
            for j in 0..n {
                m.set(0, j, true);
            }
            assert!(m.row_is_full(0), "n={n}");
            m.set(0, n - 1, false);
            assert!(!m.row_is_full(0), "n={n}");
        }
    }

    #[test]
    fn reset_and_copy_reuse_storage() {
        let mut m = BoolMatrix::zeros(130);
        m.reset_identity(70);
        assert_eq!(m, BoolMatrix::identity(70));
        m.reset_zeros(5);
        assert_eq!(m, BoolMatrix::zeros(5));
        let src = scrambled(97, 17);
        m.copy_from(&src);
        assert_eq!(m, src);
    }
}
