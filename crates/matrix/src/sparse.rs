//! Sparse square boolean matrices in canonical compressed-row form.
//!
//! A barrier stage over `P` ranks carries `O(P log P)` signals at most and
//! usually `O(P)`, so its incidence matrix is stored as what it is: the
//! ranks that send, ascending, each with its ascending, duplicate-free
//! target list. The order of that list is exactly the row-major order of
//! [`BoolMatrix::edges`], so everything that walks a stage — cost sums,
//! tie-breaks, per-rank send and receive order — sees the signals in the
//! order a scan of the dense matrix would produce. Two matrices with the
//! same entries are field-for-field equal: there is one canonical form and
//! every constructor and mutation leaves the matrix in it.
//!
//! Indices are `u32` (the simulation engine caps ranks at 2³⁰). The dense
//! [`BoolMatrix`] is an on-demand view ([`SparseBoolMatrix::to_dense`]) for
//! printing and small-size tests, and the JSON form stays the dense image
//! `{"n", "words_per_row", "bits"}`, written from the list and read back
//! into it through one validating path.

use crate::boolmat::{words_per_row_of, BoolMatrix};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Borrow;

/// A square boolean matrix stored as its set entries, row by row.
///
/// As for [`BoolMatrix`], entry `(row, col)` reads "`row` signals `col`";
/// the accessors use that vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseBoolMatrix {
    n: usize,
    /// Rows with at least one entry, ascending.
    senders: Vec<u32>,
    /// `ends[k]` is where `senders[k]`'s targets end in `targets`; they
    /// start where its predecessor's end (at 0 for the first).
    ends: Vec<u32>,
    /// The senders' ascending, duplicate-free column lists, concatenated.
    targets: Vec<u32>,
}

impl SparseBoolMatrix {
    /// The `n × n` zero matrix. Holds no heap.
    ///
    /// # Panics
    /// Panics if `n` does not fit the `u32` index type.
    pub fn zeros(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "dimension {n} exceeds u32 indices"
        );
        SparseBoolMatrix {
            n,
            senders: Vec::new(),
            ends: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Builds a matrix from `(from, to)` pairs in any order, duplicates
    /// allowed.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<(usize, usize)>,
    {
        let pairs = edges
            .into_iter()
            .map(|e| {
                let &(i, j) = e.borrow();
                assert!(i < n && j < n, "index ({i},{j}) out of range {n}");
                (i as u32, j as u32)
            })
            .collect();
        Self::from_pairs(n, pairs)
    }

    /// Canonicalises a pair list: sorts it row-major and drops duplicates
    /// (both skipped when the list already is strictly ascending, as the
    /// algorithm generators emit it), then packs the rows. The vectors are
    /// sized exactly.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range.
    pub fn from_pairs(n: usize, mut pairs: Vec<(u32, u32)>) -> Self {
        let mut m = Self::zeros(n);
        if !pairs.windows(2).all(|w| w[0] < w[1]) {
            pairs.sort_unstable();
            pairs.dedup();
        }
        assert!(
            u32::try_from(pairs.len()).is_ok(),
            "{} entries exceed u32 offsets",
            pairs.len()
        );
        let active = pairs.chunk_by(|a, b| a.0 == b.0).count();
        m.senders.reserve_exact(active);
        m.ends.reserve_exact(active);
        m.targets.reserve_exact(pairs.len());
        for &(i, j) in &pairs {
            assert!(
                (i as usize) < n && (j as usize) < n,
                "index ({i},{j}) out of range {n}"
            );
            if m.senders.last() != Some(&i) {
                m.senders.push(i);
                m.ends.push(0);
            }
            m.targets.push(j);
            *m.ends.last_mut().expect("pushed with the sender") = m.targets.len() as u32;
        }
        m
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes of heap behind the sender, offset and target vectors: by
    /// capacity, which the constructors make equal to
    /// `4 · (2 · senders + entries)`.
    pub fn heap_bytes(&self) -> usize {
        (self.senders.capacity() + self.ends.capacity() + self.targets.capacity())
            * std::mem::size_of::<u32>()
    }

    #[inline]
    fn start(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.ends[k - 1] as usize
        }
    }

    /// Ascending targets of the `k`-th active sender.
    #[inline]
    fn targets_of(&self, k: usize) -> &[u32] {
        &self.targets[self.start(k)..self.ends[k] as usize]
    }

    /// `(sender, targets)` for every active sender, ascending.
    pub fn sends(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        self.senders
            .iter()
            .enumerate()
            .map(move |(k, &i)| (i as usize, self.targets_of(k)))
    }

    /// Ascending targets of rank `i`; empty when it sends nothing.
    pub fn row(&self, i: usize) -> &[u32] {
        assert!(i < self.n, "row {i} out of range {}", self.n);
        match self.senders.binary_search(&(i as u32)) {
            Ok(k) => self.targets_of(k),
            Err(_) => &[],
        }
    }

    /// All set `(row, col)` pairs in row-major order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.sends()
            .flat_map(|(i, ts)| ts.iter().map(move |&j| (i, j as usize)))
    }

    /// Reads entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(j < self.n, "index ({i},{j}) out of range {}", self.n);
        self.row(i).binary_search(&(j as u32)).is_ok()
    }

    /// Writes entry `(i, j)`, shifting the entries behind it: linear in
    /// the entry count, meant for mutants and hand-built stages.
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of range {}",
            self.n
        );
        let (i, j) = (i as u32, j as u32);
        let k = match self.senders.binary_search(&i) {
            Ok(k) => k,
            Err(_) if !v => return,
            Err(k) => {
                let at = self.start(k) as u32;
                self.senders.insert(k, i);
                self.ends.insert(k, at);
                k
            }
        };
        let (lo, hi) = (self.start(k), self.ends[k] as usize);
        match (self.targets[lo..hi].binary_search(&j), v) {
            (Err(t), true) => {
                self.targets.insert(lo + t, j);
                self.ends[k..].iter_mut().for_each(|e| *e += 1);
            }
            (Ok(t), false) => {
                self.targets.remove(lo + t);
                self.ends[k..].iter_mut().for_each(|e| *e -= 1);
                if hi - lo == 1 {
                    self.senders.remove(k);
                    self.ends.remove(k);
                }
            }
            _ => {}
        }
    }

    /// Number of set entries (signals in this stage).
    #[inline]
    pub fn popcount(&self) -> usize {
        self.targets.len()
    }

    /// True if no entry is set (a no-op stage).
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.targets.is_empty()
    }

    /// First row whose diagonal entry is set.
    pub fn first_self_loop(&self) -> Option<usize> {
        self.sends()
            .find(|(i, ts)| ts.binary_search(&(*i as u32)).is_ok())
            .map(|(i, _)| i)
    }

    /// Transpose, by counting sort on the column: `O(n + entries)`.
    /// Barrier departure phases are the transposed arrival stages applied
    /// in reverse order (paper §V-B).
    pub fn transpose(&self) -> Self {
        // cursor[j + 1] counts column j, then becomes where its next
        // entry goes.
        let mut cursor = vec![0u32; self.n + 1];
        for &j in &self.targets {
            cursor[j as usize + 1] += 1;
        }
        let active = cursor.iter().filter(|&&c| c != 0).count();
        let mut t = Self::zeros(self.n);
        t.senders.reserve_exact(active);
        t.ends.reserve_exact(active);
        let mut at = 0;
        for j in 0..self.n {
            let count = std::mem::replace(&mut cursor[j + 1], at);
            if count != 0 {
                at += count;
                t.senders.push(j as u32);
                t.ends.push(at);
            }
        }
        t.targets = vec![0; self.targets.len()];
        for (i, ts) in self.sends() {
            for &j in ts {
                let slot = &mut cursor[j as usize + 1];
                t.targets[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        t
    }

    /// Appends this matrix's entries to `out` with index `k` mapped to
    /// `index_map[k]` — a local barrier over a rank cluster lifted into
    /// the full-system signal pattern (paper §VII-B). Composition collects
    /// the pairs of every cluster that signals in a stage and canonicalises
    /// them once with [`Self::from_pairs`], which also range-checks them.
    ///
    /// # Panics
    /// Panics if `index_map.len() != self.n()`, or if it maps both ends of
    /// an entry to one index (a rank would signal itself).
    pub fn embed_into(&self, index_map: &[usize], out: &mut Vec<(u32, u32)>) {
        assert_eq!(index_map.len(), self.n, "index map length mismatch");
        let mapped = |k: usize| u32::try_from(index_map[k]).expect("mapped index fits u32");
        out.reserve(self.targets.len());
        for (a, ts) in self.sends() {
            let src = mapped(a);
            for &b in ts {
                let dst = mapped(b as usize);
                assert_ne!(src, dst, "rank {src} signals itself");
                out.push((src, dst));
            }
        }
    }

    /// The dense view: `O(n² / 64)` words, for printing and small tests.
    pub fn to_dense(&self) -> BoolMatrix {
        let mut m = BoolMatrix::zeros(self.n);
        for (i, j) in self.edges() {
            m.set(i, j, true);
        }
        m
    }
}

impl From<&BoolMatrix> for SparseBoolMatrix {
    fn from(dense: &BoolMatrix) -> Self {
        Self::from_edges(dense.n(), dense.edges())
    }
}

/// The dense image: `n` rows of `words_per_row` little-endian bit words.
impl Serialize for SparseBoolMatrix {
    fn to_value(&self) -> Value {
        let wpr = words_per_row_of(self.n);
        let mut bits = Vec::with_capacity(self.n * wpr);
        let mut row = vec![0u64; wpr];
        let mut sends = self.sends().peekable();
        for i in 0..self.n {
            if let Some((_, ts)) = sends.next_if(|&(sender, _)| sender == i) {
                for &j in ts {
                    row[j as usize / 64] |= 1 << (j % 64);
                }
            }
            bits.extend(row.iter_mut().map(|w| Value::UInt(std::mem::take(w))));
        }
        Value::Object(vec![
            ("n".to_string(), self.n.to_value()),
            ("words_per_row".to_string(), wpr.to_value()),
            ("bits".to_string(), Value::Array(bits)),
        ])
    }
}

/// Reads the dense image, trusting no field: the stride must be the one
/// `n` implies, the word count `n · words_per_row` (so `n` is bounded by
/// what the document actually holds before anything is sized by it), and
/// no bit may sit at a column `≥ n`. Memory grows with the set bits found.
impl Deserialize for SparseBoolMatrix {
    fn from_value(value: &Value) -> Result<Self, String> {
        const WHAT: &str = "a boolean matrix";
        let n = usize::from_value(serde::__field(value, "n", WHAT)?)?;
        let wpr = usize::from_value(serde::__field(value, "words_per_row", WHAT)?)?;
        let bits = serde::__field(value, "bits", WHAT)?
            .as_array()
            .ok_or("expected an array for `bits`")?;
        let expected = words_per_row_of(n);
        if wpr != expected {
            return Err(format!(
                "words_per_row is {wpr}, but n = {n} needs {expected}"
            ));
        }
        if n.checked_mul(wpr) != Some(bits.len()) {
            return Err(format!(
                "bits holds {} words, but n = {n} rows of {wpr} need {}",
                bits.len(),
                (n as u128) * (wpr as u128)
            ));
        }
        if u32::try_from(n).is_err() {
            return Err(format!("n = {n} exceeds u32 indices"));
        }
        let mut m = Self::zeros(n);
        for (i, row) in bits.chunks_exact(wpr).enumerate() {
            let before = m.targets.len();
            for (w, word) in row.iter().enumerate() {
                let mut word = u64::from_value(word)?;
                while word != 0 {
                    let j = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if j >= n {
                        return Err(format!("row {i} has a bit at column {j}, but n = {n}"));
                    }
                    m.targets.push(j as u32);
                }
            }
            if m.targets.len() > before {
                m.senders.push(i as u32);
                let end = u32::try_from(m.targets.len())
                    .map_err(|_| format!("more than {} set bits", u32::MAX))?;
                m.ends.push(end);
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes on both sides of the one- and two-word row boundaries.
    const SIZES: [usize; 7] = [0, 1, 2, 63, 64, 65, 130];

    /// Deterministic pseudo-random edges over `n` ranks, in no order, every
    /// third one repeated later.
    fn random_edges(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut x = seed | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let mut edges = Vec::new();
        if n == 0 {
            return edges;
        }
        for k in 0..count {
            edges.push((next() % n, next() % n));
            if k % 3 == 0 {
                let again = edges[next() % edges.len()];
                edges.push(again);
            }
        }
        edges
    }

    fn assert_agrees(sparse: &SparseBoolMatrix, dense: &BoolMatrix) {
        let n = dense.n();
        assert_eq!(sparse.n(), n);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(sparse.get(i, j), dense.get(i, j), "n={n} at ({i},{j})");
            }
            let row: Vec<usize> = sparse.row(i).iter().map(|&j| j as usize).collect();
            assert_eq!(row, dense.row_iter(i).collect::<Vec<_>>());
        }
        assert!(sparse.edges().eq(dense.edges()), "row-major order, n={n}");
        assert_eq!(sparse.popcount(), dense.popcount());
        assert_eq!(sparse.is_zero(), dense.is_zero());
        assert_eq!(
            sparse.first_self_loop(),
            (0..n).find(|&i| dense.get(i, i)),
            "n={n}"
        );
        assert_eq!(&sparse.to_dense(), dense);
        assert_eq!(&SparseBoolMatrix::from(dense), sparse, "one canonical form");
        assert_eq!(
            sparse.heap_bytes(),
            4 * (2 * sparse.senders.len() + sparse.popcount()),
            "vectors sized exactly"
        );
    }

    #[test]
    fn agrees_with_the_dense_matrix_on_random_edge_sets() {
        for n in SIZES {
            for (count, seed) in [(0, 1), (1, 2), (n, 3), (4 * n, 4)] {
                let edges = random_edges(n, count, seed + n as u64);
                let sparse = SparseBoolMatrix::from_edges(n, &edges);
                assert_agrees(&sparse, &BoolMatrix::from_edges(n, &edges));
                // Insertion order and repeats do not show.
                let mut reversed = edges.clone();
                reversed.reverse();
                assert_eq!(SparseBoolMatrix::from_edges(n, &reversed), sparse);
            }
        }
    }

    #[test]
    fn set_matches_dense_set_entry_by_entry() {
        for n in SIZES {
            let mut sparse = SparseBoolMatrix::zeros(n);
            let mut dense = BoolMatrix::zeros(n);
            // Insert one by one (new senders, new targets, repeats) …
            let edges = random_edges(n, 2 * n, 7 + n as u64);
            for &(i, j) in &edges {
                sparse.set(i, j, true);
                dense.set(i, j, true);
            }
            assert_eq!(sparse, SparseBoolMatrix::from_edges(n, &edges));
            assert_eq!(sparse.to_dense(), dense);
            // … clear what is not there, then everything: a sender leaves
            // the list with its last signal.
            for &(i, j) in &edges {
                sparse.set(j, i, dense.get(j, i));
                sparse.set(i, j, false);
                dense.set(i, j, false);
                assert_eq!(sparse.popcount(), dense.popcount(), "n={n} after ({i},{j})");
            }
            assert_eq!(sparse, SparseBoolMatrix::zeros(n));
        }
        let mut m = SparseBoolMatrix::from_edges(5, [(1, 0), (3, 0), (3, 2)]);
        m.set(3, 2, false);
        m.set(3, 0, false);
        assert_eq!(m.senders, [1]);
        m.set(0, 4, true);
        m.set(4, 4, true);
        assert_eq!(m.edges().collect::<Vec<_>>(), vec![(0, 4), (1, 0), (4, 4)]);
        assert_eq!(m.first_self_loop(), Some(4));
    }

    #[test]
    fn transpose_matches_dense_transpose_and_is_an_involution() {
        for n in SIZES {
            let edges = random_edges(n, 3 * n, 11 + n as u64);
            let sparse = SparseBoolMatrix::from_edges(n, &edges);
            let t = sparse.transpose();
            assert_agrees(&t, &BoolMatrix::from_edges(n, &edges).transpose());
            assert_eq!(t.transpose(), sparse);
        }
    }

    #[test]
    fn embed_and_merge_is_the_or_of_embedded_matrices() {
        // Clusters of a 130-rank host, interleaved so their pairs arrive
        // unsorted, one of them twice.
        let host = 130;
        let clusters: [Vec<usize>; 3] = [
            (0..host).step_by(3).collect(),
            (1..host).step_by(3).rev().collect(),
            vec![129, 2, 64, 63],
        ];
        let mut pairs = Vec::new();
        let mut expected = BoolMatrix::zeros(host);
        for (c, map) in clusters.iter().chain(&clusters[2..]).enumerate() {
            let local = SparseBoolMatrix::from_edges(
                map.len(),
                random_edges(map.len(), 2 * map.len(), c as u64)
                    .into_iter()
                    .filter(|(i, j)| i != j),
            );
            local.embed_into(map, &mut pairs);
            for (i, j) in local.edges() {
                expected.set(map[i], map[j], true);
            }
        }
        assert_agrees(&SparseBoolMatrix::from_pairs(host, pairs), &expected);
    }

    #[test]
    #[should_panic(expected = "signals itself")]
    fn embedding_through_duplicate_members_is_rejected() {
        let local = SparseBoolMatrix::from_edges(2, [(1, 0)]);
        local.embed_into(&[2, 2], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn embedding_outside_the_host_is_rejected() {
        let mut pairs = Vec::new();
        SparseBoolMatrix::from_edges(2, [(1, 0)]).embed_into(&[0, 5], &mut pairs);
        SparseBoolMatrix::from_pairs(5, pairs);
    }

    #[test]
    fn sparse_product_is_the_eq3_update() {
        for n in [1, 63, 65, 130] {
            let k = BoolMatrix::from_edges(n, &random_edges(n, 5 * n, 3));
            let s = SparseBoolMatrix::from_edges(n, random_edges(n, 2 * n, 5));
            let mut acc = k.clone();
            k.accumulate_sparse_product(&s, &mut acc);
            // K + K·S by definition: a signal m → j carries all m knew.
            let mut want = k.clone();
            for (m, j) in s.edges() {
                for i in (0..n).filter(|&i| k.get(i, m)) {
                    want.set(i, j, true);
                }
            }
            assert_eq!(acc, want, "n={n}");
        }
    }

    /// The dense image as the derived serializer of the bitset matrix
    /// wrote it before stages became lists.
    fn dense_image(m: &BoolMatrix) -> Value {
        let bits = (0..m.n()).flat_map(|i| m.row(i).iter().map(|&w| Value::UInt(w)));
        Value::Object(vec![
            ("n".to_string(), Value::UInt(m.n() as u64)),
            (
                "words_per_row".to_string(),
                Value::UInt(m.n().div_ceil(64).max(1) as u64),
            ),
            ("bits".to_string(), Value::Array(bits.collect())),
        ])
    }

    #[test]
    fn json_is_the_dense_image_and_reads_back() {
        for n in SIZES {
            let edges = random_edges(n, 2 * n, 13 + n as u64);
            let sparse = SparseBoolMatrix::from_edges(n, &edges);
            let image = sparse.to_value();
            assert_eq!(image, dense_image(&BoolMatrix::from_edges(n, &edges)));
            assert_eq!(SparseBoolMatrix::from_value(&image), Ok(sparse));
        }
    }

    fn with_field(image: &Value, key: &str, new: Value) -> Value {
        let mut entries = image.as_object().expect("object").to_vec();
        entries.iter_mut().find(|(k, _)| k == key).expect("field").1 = new;
        Value::Object(entries)
    }

    #[test]
    fn malformed_images_are_errors_not_matrices() {
        let image = SparseBoolMatrix::from_edges(70, [(1, 0), (69, 68)]).to_value();
        let bits = image.get("bits").unwrap().as_array().unwrap().to_vec();
        let read = |v: &Value| SparseBoolMatrix::from_value(v).unwrap_err();

        let short = with_field(&image, "bits", Value::Array(bits[..138].to_vec()));
        assert!(
            read(&short).contains("bits holds 138 words"),
            "{}",
            read(&short)
        );
        let stride = with_field(&image, "words_per_row", Value::UInt(0));
        assert!(read(&stride).contains("words_per_row is 0, but n = 70 needs 2"));
        let mut stray = bits.clone();
        stray[1] = Value::UInt(1 << 6); // row 0, column 70
        let stray = with_field(&image, "bits", Value::Array(stray));
        assert!(read(&stray).contains("row 0 has a bit at column 70"));
        let huge = with_field(&image, "n", Value::UInt(1 << 40));
        assert!(read(&huge).contains("words_per_row is 2, but n = 1099511627776 needs"));
        // A size whose word count overflows is caught by the same checked
        // product, before anything is sized by it.
        let huge = with_field(&huge, "words_per_row", Value::UInt(1 << 34));
        assert!(
            read(&huge).contains("bits holds 140 words"),
            "{}",
            read(&huge)
        );
        let negative = with_field(&image, "bits", {
            let mut b = bits;
            b[0] = Value::Int(-1);
            Value::Array(b)
        });
        assert!(read(&negative).contains("out of range for u64"));
    }
}
