//! Class-compressed cost model: the `|P|²` memory-wall fix.
//!
//! The dense [`CostMatrices`] spend 16 bytes per ordered pair (`O` and
//! `L` as `f64`), which at P = 16384 is 4 GiB before the tuner has done
//! any work. But a real machine only has a handful of distinct pair
//! behaviours (interconnect class × hop signature × socket relation ×
//! noise regime): the dense matrices are a few dozen distinct `(O, L)`
//! values stamped 268 million times — and which value goes where depends
//! on a rank only through its *kind* (on a cluster of dual quad-core
//! nodes its `(node, socket)`: `K = P/4` kinds).
//!
//! [`CompressedCostModel`] stores that structure directly. Its
//! [`ClassMap`] holds, in kind space,
//!
//! * `kind_of`: rank → kind (`u32`, `P` entries),
//! * a `K × K` table of `u16` class ids over *ordered* kind pairs,
//! * `diag`: every rank's diagonal class (`O_ii` call overhead,
//!   `L_ii = 0` by convention),
//! * a sorted list of *overrides* `(i, j) → class` for single cells that
//!   differ from their kind pair's class (the members of a class a
//!   profiling sweep exploded, each carrying its own measurement),
//!
//! so that the class of cell `(i, j)` is `diag[i]` on the diagonal, its
//! override where it has one, and `table[kind(i)·K + kind(j)]`
//! otherwise; two per-class value tables turn the class into `(O, L)`.
//! That is `2K² + 6P` bytes — 33.7 MB at P = 16384 on dual quad-core
//! nodes — instead of the `2P²` (512 MiB) of one class id per cell. A
//! `P × P` class grid is the same struct with `K = P` and every rank its
//! own kind ([`CompressedCostModel::from_parts`],
//! [`CompressedCostModel::from_dense`]); there is no second storage.
//!
//! Every accessor returns the same `f64` bits the dense image holds, so
//! the evaluator's scores and full tunes are equal across backings, which
//! the parity proptests assert at P ≤ 256.
//!
//! Diagonal cells get class ids disjoint from off-diagonal cells even
//! when their values collide. That invariant is what lets the derived
//! [`DistanceMetric`] share the map zero-copy: the per-class distance
//! table maps diagonal classes to `0.0` and off-diagonal classes to the
//! symmetrized `O_c / 2 + O_c / 2` without consulting positions.

use crate::cost::{CostMatrices, CostProvider, Fnv};
use crate::metric::DistanceMetric;
use hbar_matrix::DenseMatrix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Maximum number of distinct pair classes a `u16` class id can address.
pub const MAX_CLASSES: usize = 1 << 16;

/// Why a compressed model could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompressError {
    /// The model needs more classes than a `u16` class id can address.
    ClassOverflow {
        /// Distinct classes required (> [`MAX_CLASSES`]).
        needed: usize,
    },
    /// `table_o` and `table_l` disagree in length.
    TableMismatch { o: usize, l: usize },
    /// The class table is not square over its kinds: `len` cells where
    /// `p × p` were expected. `p` is the table's side — the number of
    /// kinds, which for a class grid is the number of ranks.
    GridShape { p: usize, len: usize },
    /// `kind_of` or `diag` does not hold one entry per rank.
    RankMapShape {
        p: usize,
        kind_of: usize,
        diag: usize,
    },
    /// A rank's kind is past the class table.
    KindOutOfRange {
        rank: usize,
        kind: u32,
        kinds: usize,
    },
    /// A cell references a class past the value tables. `cell` is
    /// `i · p + j` of a cell of the dense image that reads the class: the
    /// rank's own for a diagonal class, the override's own, and for a
    /// kind pair the first rank of the row kind against the last of the
    /// column kind.
    ClassOutOfRange {
        cell: usize,
        class: u16,
        classes: usize,
    },
    /// A class id appears both on and off the diagonal, so the metric
    /// could not tell `d(i, i) = 0` from a real distance.
    DiagonalClassShared { class: u16 },
    /// An override names a rank past `p`.
    OverrideOutOfRange { i: u32, j: u32, p: usize },
    /// An override sits on the diagonal, whose classes are `diag`'s.
    OverrideOnDiagonal { rank: usize },
    /// Override `at` does not come strictly after its predecessor in
    /// `(i, j)` order (a duplicate included).
    OverridesUnsorted { at: usize },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::ClassOverflow { needed } => write!(
                f,
                "model needs {needed} pair classes, more than the {MAX_CLASSES} a u16 id addresses"
            ),
            CompressError::TableMismatch { o, l } => {
                write!(f, "value tables disagree: {o} O entries vs {l} L entries")
            }
            CompressError::GridShape { p, len } => {
                write!(f, "class table has {len} cells, expected {p}x{p}")
            }
            CompressError::RankMapShape { p, kind_of, diag } => write!(
                f,
                "{p} ranks, but {kind_of} kinds and {diag} diagonal classes listed"
            ),
            CompressError::KindOutOfRange { rank, kind, kinds } => write!(
                f,
                "rank {rank} has kind {kind}, but the class table covers {kinds} kinds"
            ),
            CompressError::ClassOutOfRange {
                cell,
                class,
                classes,
            } => write!(
                f,
                "cell {cell} references class {class}, but only {classes} classes exist"
            ),
            CompressError::DiagonalClassShared { class } => write!(
                f,
                "class {class} is used both on and off the diagonal; diagonal cells must \
                 have dedicated classes"
            ),
            CompressError::OverrideOutOfRange { i, j, p } => {
                write!(f, "override ({i}, {j}) is outside the {p} ranks")
            }
            CompressError::OverrideOnDiagonal { rank } => {
                write!(f, "override ({rank}, {rank}) sits on the diagonal")
            }
            CompressError::OverridesUnsorted { at } => write!(
                f,
                "override {at} is not after its predecessor in (i, j) order"
            ),
        }
    }
}

impl std::error::Error for CompressError {}

/// One cell `(i, j)`, `i ≠ j`, whose class is not its kind pair's.
pub type Override = (u32, u32, u16);

/// The unvalidated parts of a model in kind space: what a sweep hands to
/// [`CompressedCostModel::from_kinds`] and what a compact profile file
/// holds. See the module docs for the meaning of each part.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelParts {
    /// Number of ranks.
    pub p: usize,
    /// Number of kinds, `K`.
    pub kinds: usize,
    /// Rank → kind, `p` entries below `kinds`. A kind without ranks is
    /// allowed; its table row and column are never read.
    pub kind_of: Vec<u32>,
    /// `kinds × kinds`, row-major: (kind of `i`, kind of `j`) → class of
    /// `(i, j)`. A cell no pair of distinct ranks has — the `(k, k)` cell
    /// of a one-rank kind, any cell of an empty kind — may hold anything
    /// (a model keeps the rank's diagonal class in the former).
    pub table: Vec<u16>,
    /// Rank → class of `(i, i)`, `p` entries.
    pub diag: Vec<u16>,
    /// Cells with a class of their own, strictly ascending in `(i, j)`.
    pub overrides: Vec<Override>,
    /// Class → `O`.
    pub table_o: Vec<f64>,
    /// Class → `L`, as long as `table_o`.
    pub table_l: Vec<f64>,
}

/// Absorbs class ids four to a word; their number is hashed separately.
fn absorb_classes(h: &mut Fnv, ids: &[u16]) {
    for four in ids.chunks(4) {
        h.word(four.iter().fold(0, |w, &id| w << 16 | u64::from(id)));
    }
}

/// First word of every kind-space fingerprint, so that a model never
/// fingerprints like the dense matrices of its image.
const STORAGE_TAG: u64 = u64::from_le_bytes(*b"kindspac");

/// Which class every cell of a `P × P` model belongs to, stored in kind
/// space (see the module docs). Shared through one `Arc` by a
/// [`CompressedCostModel`] and the [`DistanceMetric`] derived from it;
/// only the model's validating constructors build one, so every class a
/// lookup returns indexes the model's value tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassMap {
    kinds: usize,
    kind_of: Vec<u32>,
    table: Vec<u16>,
    diag: Vec<u16>,
    overrides: Vec<Override>,
    /// Per class: is it the kind-pair class of an overridden cell? Lets a
    /// lookup skip the override search for every other class.
    overridden: Vec<bool>,
    /// The rank order as runs of one kind, `(kind, ranks in a row)`: a
    /// row is decompressed run by run, not cell by cell.
    kind_runs: Vec<(u32, usize)>,
    /// Hash of `kinds`, `kind_of`, `table`, `diag` and `overrides`, taken
    /// at construction: the map's share of a model's fingerprint, which
    /// leaves a model that shares the map only its value tables to hash.
    hash: u64,
}

impl ClassMap {
    /// Assembles a map from validated parts: derives the kind runs and
    /// takes the hash, in `O(K² + P + overrides)`.
    fn new(
        kinds: usize,
        kind_of: Vec<u32>,
        table: Vec<u16>,
        diag: Vec<u16>,
        overrides: Vec<Override>,
        overridden: Vec<bool>,
    ) -> Self {
        let mut kind_runs: Vec<(u32, usize)> = Vec::new();
        let mut h = Fnv::default();
        h.word(STORAGE_TAG);
        h.word(kind_of.len() as u64);
        h.word(kinds as u64);
        for &kind in &kind_of {
            h.word(u64::from(kind));
            match kind_runs.last_mut() {
                Some((last, len)) if *last == kind => *len += 1,
                _ => kind_runs.push((kind, 1)),
            }
        }
        absorb_classes(&mut h, &table);
        absorb_classes(&mut h, &diag);
        h.word(overrides.len() as u64);
        for &(i, j, class) in &overrides {
            h.word(u64::from(i) << 32 | u64::from(j));
            h.word(u64::from(class));
        }
        ClassMap {
            kinds,
            kind_of,
            table,
            diag,
            overrides,
            overridden,
            kind_runs,
            hash: h.0,
        }
    }

    /// Number of ranks.
    #[inline]
    pub fn p(&self) -> usize {
        self.kind_of.len()
    }

    /// Number of kinds, `K`.
    pub fn kinds(&self) -> usize {
        self.kinds
    }

    /// Rank → kind.
    pub fn kind_of(&self) -> &[u32] {
        &self.kind_of
    }

    /// Rank → class of its diagonal cell.
    pub fn diag(&self) -> &[u16] {
        &self.diag
    }

    /// The cells with a class of their own, ascending in `(i, j)`.
    pub fn overrides(&self) -> &[Override] {
        &self.overrides
    }

    /// Class of cell `(i, j)`.
    ///
    /// # Panics
    /// Panics if `i` or `j` is not a rank.
    #[inline]
    pub fn class_at(&self, i: usize, j: usize) -> u16 {
        if i == j {
            return self.diag[i];
        }
        let base = self.table[self.kind_of[i] as usize * self.kinds + self.kind_of[j] as usize];
        if !self.overridden[base as usize] {
            return base;
        }
        let found = (self.overrides).binary_search_by_key(&(i as u32, j as u32), |o| (o.0, o.1));
        found.map_or(base, |at| self.overrides[at].2)
    }

    /// Row `i`, with everything that depends on `i` alone looked up once.
    ///
    /// # Panics
    /// Panics if `i` is not a rank.
    pub fn row(&self, i: usize) -> ClassRow<'_> {
        let overrides = if self.overrides.is_empty() {
            &[][..]
        } else {
            let from = self.overrides.partition_point(|o| (o.0 as usize) < i);
            let len = self.overrides[from..].partition_point(|o| o.0 as usize == i);
            &self.overrides[from..from + len]
        };
        ClassRow {
            map: self,
            i,
            kind_row: &self.table[self.kind_of[i] as usize * self.kinds..][..self.kinds],
            overrides,
        }
    }

    /// `class(i, j) == class(j, i)` for every pair of ranks, decided on
    /// the kind table (block against mirrored block, so the transposed
    /// reads stay in cache; `ranks[k]` = ranks of kind `k`) and the
    /// override list. A mirrored pair of kind cells that differ counts
    /// even if every cell of theirs is overridden — an answer of `false`
    /// costs the zero-copy metric, never correctness.
    fn is_symmetric(&self, ranks: &[u64]) -> bool {
        const BLOCK: usize = 64;
        let k = self.kinds;
        let mirrored = |a: usize, b: usize| {
            ranks[a] == 0 || ranks[b] == 0 || self.table[a * k + b] == self.table[b * k + a]
        };
        let blocks = |from: usize| (from..k).step_by(BLOCK);
        blocks(0).all(|ba| {
            blocks(ba).all(|bb| {
                (ba..k.min(ba + BLOCK))
                    .all(|a| (bb.max(a + 1)..k.min(bb + BLOCK)).all(|b| mirrored(a, b)))
            })
        }) && (self.overrides.iter())
            .all(|&(i, j, class)| self.class_at(j as usize, i as usize) == class)
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.kind_of[..])
            + std::mem::size_of_val(&self.table[..])
            + std::mem::size_of_val(&self.diag[..])
            + std::mem::size_of_val(&self.overrides[..])
            + self.overridden.len()
            + std::mem::size_of_val(&self.kind_runs[..])
    }
}

/// One row of a [`ClassMap`].
#[derive(Clone, Copy, Debug)]
pub struct ClassRow<'a> {
    map: &'a ClassMap,
    i: usize,
    /// The table row of `i`'s kind: kind of `j` → class of `(i, j)`.
    kind_row: &'a [u16],
    /// Row `i`'s overrides, ascending in `j`.
    overrides: &'a [Override],
}

impl ClassRow<'_> {
    /// Class of cell `(i, j)`.
    ///
    /// # Panics
    /// Panics if `j` is not a rank.
    #[inline]
    pub fn class(&self, j: usize) -> u16 {
        if j == self.i {
            return self.map.diag[j];
        }
        let base = self.kind_row[self.map.kind_of[j] as usize];
        if self.overrides.is_empty() {
            return base;
        }
        let found = self.overrides.binary_search_by_key(&(j as u32), |o| o.1);
        found.map_or(base, |at| self.overrides[at].2)
    }

    /// The row as the kind table alone gives it, in runs of one class:
    /// `run(class, cells in a row)`, left to right. Right everywhere but
    /// in [`patches`](Self::patches).
    fn for_each_class_run(&self, mut run: impl FnMut(u16, usize)) {
        let mut kind_runs =
            (self.map.kind_runs.iter()).map(|&(kind, len)| (self.kind_row[kind as usize], len));
        let Some((mut class, mut len)) = kind_runs.next() else {
            return;
        };
        for (next, more) in kind_runs {
            if next != class {
                run(class, len);
                (class, len) = (next, 0);
            }
            len += more;
        }
        run(class, len);
    }

    /// The cells of this row that do not read the kind table, ascending
    /// in `j`: the overrides, and the diagonal cell among them.
    fn patches(&self) -> impl Iterator<Item = (usize, u16)> + '_ {
        let split = self.overrides.partition_point(|o| (o.1 as usize) < self.i);
        let (before, after) = self.overrides.split_at(split);
        let own = |o: &Override| (o.1 as usize, o.2);
        (before.iter().map(own))
            .chain([(self.i, self.map.diag[self.i])])
            .chain(after.iter().map(own))
    }

    /// Decompresses the row through a per-class value table:
    /// `out[j] = values[class(i, j)]`.
    ///
    /// # Panics
    /// Panics if `out` is not `p` long or `values` is shorter than the
    /// model's value tables.
    pub fn values_into(&self, values: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.map.p(), "a row holds one cell per rank");
        let mut at = 0;
        self.for_each_class_run(|class, len| {
            out[at..at + len].fill(values[class as usize]);
            at += len;
        });
        for (j, class) in self.patches() {
            out[j] = values[class as usize];
        }
    }
}

/// A `P × P` cost model stored as a [`ClassMap`] plus per-class `(O, L)`
/// value tables.
///
/// See the module docs for the representation contract. Its
/// [`CostProvider::fingerprint`] is a hash of the parts it stores — the
/// map's hash, then the two value tables — computed once at construction
/// in `O(K² + P + overrides + classes)`; nothing a model does is
/// proportional to `P²` unless a caller asks for the dense image.
///
/// Serializes as its [`ModelParts`] and deserializes only through
/// [`Self::from_kinds`], so a model read from a file has passed the same
/// validation as one a sweep built.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedCostModel {
    map: Arc<ClassMap>,
    table_o: Vec<f64>,
    table_l: Vec<f64>,
    /// Per class: where in the dense image it occurs (never both on and
    /// off the diagonal).
    placement: Vec<ClassPlacement>,
    symmetric: bool,
    fingerprint: u64,
}

/// Where a class occurs in the dense image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClassPlacement {
    /// In the value tables only.
    Unused,
    Diagonal,
    OffDiagonal,
}

impl CompressedCostModel {
    /// Builds from a map in kind space and value tables — the sweep's
    /// constructor, and the only way a compact profile file becomes a
    /// model. Validates the full representation contract in
    /// `O(K² + P + overrides)`: shapes, kinds, the class range of every
    /// cell some pair reads, and that no class sits both on and off the
    /// diagonal. Where a class occurs is counted, not scanned: a kind
    /// pair `(a, b)` holds `n_a · n_b` cells (`n_a · (n_a − 1)` for
    /// `a = b`), less the overridden ones, so a class whose every cell
    /// was overridden counts as unused, exactly as in the dense image.
    ///
    /// Cells are checked kind row by kind row, a one-rank kind's diagonal
    /// class in the place of its `(k, k)` cell, then the diagonal classes
    /// in rank order, then the overrides; the first offender is reported.
    /// With every rank its own kind that is row-major order.
    pub fn from_kinds(parts: ModelParts) -> Result<Self, CompressError> {
        let ModelParts {
            p,
            kinds,
            kind_of,
            mut table,
            diag,
            overrides,
            table_o,
            table_l,
        } = parts;
        let classes = table_o.len();
        if classes != table_l.len() {
            return Err(CompressError::TableMismatch {
                o: classes,
                l: table_l.len(),
            });
        }
        if classes > MAX_CLASSES {
            return Err(CompressError::ClassOverflow { needed: classes });
        }
        if kinds.checked_mul(kinds) != Some(table.len()) {
            return Err(CompressError::GridShape {
                p: kinds,
                len: table.len(),
            });
        }
        if kind_of.len() != p || diag.len() != p {
            return Err(CompressError::RankMapShape {
                p,
                kind_of: kind_of.len(),
                diag: diag.len(),
            });
        }
        let check = |cell: usize, class: u16| {
            if (class as usize) < classes {
                Ok(class as usize)
            } else {
                Err(CompressError::ClassOutOfRange {
                    cell,
                    class,
                    classes,
                })
            }
        };

        // Every kind's population, first and last rank.
        let mut ranks = vec![0u64; kinds];
        let (mut first, mut last) = (vec![0; kinds], vec![0; kinds]);
        for (rank, &kind) in kind_of.iter().enumerate() {
            let Some(n) = ranks.get_mut(kind as usize) else {
                return Err(CompressError::KindOutOfRange { rank, kind, kinds });
            };
            if *n == 0 {
                first[kind as usize] = rank;
            }
            last[kind as usize] = rank;
            *n += 1;
        }

        // Off-diagonal cells per class. Neighbouring kinds mostly share a
        // class: check and count per run of equal table entries.
        let mut cells = vec![0u64; classes];
        for a in (0..kinds).filter(|&a| ranks[a] > 0) {
            let kind_row = &table[a * kinds..][..kinds];
            let count_runs = |cells: &mut [u64], columns: Range<usize>| {
                let mut b = columns.start;
                while b < columns.end {
                    let class = kind_row[b];
                    let (mut pairs, mut read_at) = (0, None);
                    while b < columns.end && kind_row[b] == class {
                        if ranks[b] > 0 {
                            read_at.get_or_insert(first[a] * p + last[b]);
                            pairs += ranks[a] * ranks[b];
                        }
                        b += 1;
                    }
                    if let Some(cell) = read_at {
                        cells[check(cell, class)?] += pairs;
                    }
                }
                Ok::<(), CompressError>(())
            };
            count_runs(&mut cells, 0..a)?;
            if ranks[a] == 1 {
                check(first[a] * p + first[a], diag[first[a]])?;
            } else {
                cells[check(first[a] * p + last[a], kind_row[a])?] += ranks[a] * (ranks[a] - 1);
            }
            count_runs(&mut cells, a + 1..kinds)?;
        }
        let mut on_diagonal = vec![false; classes];
        for (i, &class) in diag.iter().enumerate() {
            on_diagonal[check(i * p + i, class)?] = true;
        }
        let mut overridden = vec![false; classes];
        let mut previous = None;
        for (at, &(i, j, class)) in overrides.iter().enumerate() {
            let (row, column) = (i as usize, j as usize);
            if row >= p || column >= p {
                return Err(CompressError::OverrideOutOfRange { i, j, p });
            }
            if i == j {
                return Err(CompressError::OverrideOnDiagonal { rank: row });
            }
            if previous >= Some((i, j)) {
                return Err(CompressError::OverridesUnsorted { at });
            }
            previous = Some((i, j));
            cells[check(row * p + column, class)?] += 1;
            // Two distinct ranks read this table cell, so it was checked
            // and counts this pair.
            let base = table[kind_of[row] as usize * kinds + kind_of[column] as usize] as usize;
            cells[base] -= 1;
            overridden[base] = true;
        }
        if let Some(class) = (0..classes).find(|&c| on_diagonal[c] && cells[c] > 0) {
            return Err(CompressError::DiagonalClassShared {
                class: class as u16,
            });
        }
        let placement = (on_diagonal.iter().zip(&cells))
            .map(|(&on_diagonal, &cells)| match (on_diagonal, cells) {
                (true, _) => ClassPlacement::Diagonal,
                (_, 0) => ClassPlacement::Unused,
                _ => ClassPlacement::OffDiagonal,
            })
            .collect();

        // A one-rank kind's own cell of the table is in no pair and was not
        // checked. Rows are decompressed through the table at every
        // position and patched on the diagonal afterwards, so the cell has
        // to be a class; the rank's diagonal class is even the right one.
        for a in (0..kinds).filter(|&a| ranks[a] == 1) {
            table[a * kinds + a] = diag[first[a]];
        }
        let map = ClassMap::new(kinds, kind_of, table, diag, overrides, overridden);
        let symmetric = map.is_symmetric(&ranks);
        let mut h = Fnv(map.hash);
        h.word(classes as u64);
        for value in table_o.iter().chain(&table_l) {
            h.word(value.to_bits());
        }
        Ok(CompressedCostModel {
            map: Arc::new(map),
            table_o,
            table_l,
            placement,
            symmetric,
            fingerprint: h.0,
        })
    }

    /// Builds from an explicit `p × p` class grid and value tables: the
    /// model in which every rank is its own kind, the grid is the kind
    /// table and its diagonal the diagonal classes. Validated as
    /// [`Self::from_kinds`] validates, in row-major order.
    pub fn from_parts(
        p: usize,
        grid: Vec<u16>,
        table_o: Vec<f64>,
        table_l: Vec<f64>,
    ) -> Result<Self, CompressError> {
        if p.checked_mul(p) != Some(grid.len()) {
            return Err(CompressError::GridShape { p, len: grid.len() });
        }
        Self::from_kinds(ModelParts {
            p,
            kinds: p,
            // A grid of p² cells exists, so p fits.
            kind_of: (0..p as u32).collect(),
            diag: grid.iter().step_by(p + 1).copied().collect(),
            table: grid,
            overrides: Vec::new(),
            table_o,
            table_l,
        })
    }

    /// Compresses dense matrices exactly: cells with bit-identical
    /// `(O, L)` values share a class (diagonal cells kept in their own
    /// class space). Fails only if the matrices have more distinct value
    /// pairs than [`MAX_CLASSES`] — i.e. the model is effectively
    /// incompressible and dense storage is the honest representation.
    pub fn from_dense(cost: &CostMatrices) -> Result<Self, CompressError> {
        let p = cost.p();
        let o = cost.o.as_slice();
        let l = cost.l.as_slice();
        let mut index: HashMap<(u64, u64, bool), u16> = HashMap::new();
        let mut grid = vec![0u16; p * p];
        let mut table_o = Vec::new();
        let mut table_l = Vec::new();
        for i in 0..p {
            for j in 0..p {
                let cell = i * p + j;
                let key = (o[cell].to_bits(), l[cell].to_bits(), i == j);
                let next = table_o.len();
                let class = *index.entry(key).or_insert_with(|| {
                    table_o.push(o[cell]);
                    table_l.push(l[cell]);
                    // The cast wraps past MAX_CLASSES; the overflow check
                    // below rejects the model before the grid is used.
                    next as u16
                });
                grid[cell] = class;
            }
        }
        if table_o.len() > MAX_CLASSES {
            return Err(CompressError::ClassOverflow {
                needed: table_o.len(),
            });
        }
        Self::from_parts(p, grid, table_o, table_l)
    }

    /// Number of processes.
    #[inline]
    pub fn p(&self) -> usize {
        self.map.p()
    }

    /// Number of distinct pair classes (diagonal classes included).
    pub fn classes(&self) -> usize {
        self.table_o.len()
    }

    /// Whether `class(i, j) == class(j, i)` for every pair (decided on
    /// the kind table and the overrides).
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// The shared cell → class map.
    pub fn class_map(&self) -> &Arc<ClassMap> {
        &self.map
    }

    /// Heap bytes held by this model (the map counted once even though
    /// the derived metric may share it).
    pub fn heap_bytes(&self) -> usize {
        self.map.heap_bytes()
            + (self.table_o.len() + self.table_l.len()) * std::mem::size_of::<f64>()
            + self.placement.len()
    }

    /// The parts [`Self::from_kinds`] rebuilds this model from.
    pub fn to_parts(&self) -> ModelParts {
        let map = &*self.map;
        ModelParts {
            p: map.p(),
            kinds: map.kinds,
            kind_of: map.kind_of.clone(),
            table: map.table.clone(),
            diag: map.diag.clone(),
            overrides: map.overrides.clone(),
            table_o: self.table_o.clone(),
            table_l: self.table_l.clone(),
        }
    }

    /// Decompresses to dense matrices — bit-identical to the model's
    /// image, used by parity assertions and by consumers that genuinely
    /// need dense storage (e.g. wire serialization of small models).
    pub fn to_dense(&self) -> CostMatrices {
        CostMatrices {
            o: self.image(&self.table_o),
            l: self.image(&self.table_l),
        }
    }

    /// The dense image of one per-class value table.
    fn image(&self, values: &[f64]) -> DenseMatrix<f64> {
        let p = self.p();
        let mut data = vec![0.0; p * p];
        for (i, cells) in data.chunks_exact_mut(p.max(1)).enumerate() {
            self.map.row(i).values_into(values, cells);
        }
        DenseMatrix::from_vec(p, data)
    }
}

impl Serialize for CompressedCostModel {
    fn to_value(&self) -> serde::Value {
        self.to_parts().to_value()
    }
}

impl Deserialize for CompressedCostModel {
    fn from_value(value: &serde::Value) -> Result<Self, String> {
        Self::from_kinds(ModelParts::from_value(value)?).map_err(|e| e.to_string())
    }
}

impl CostProvider for CompressedCostModel {
    #[inline]
    fn p(&self) -> usize {
        self.map.p()
    }

    #[inline]
    fn o_at(&self, i: usize, j: usize) -> f64 {
        self.table_o[self.map.class_at(i, j) as usize]
    }

    #[inline]
    fn l_at(&self, i: usize, j: usize) -> f64 {
        self.table_l[self.map.class_at(i, j) as usize]
    }

    #[inline]
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The clustering metric. For a symmetric map (every symmetric
    /// sweep's) this shares the map zero-copy and only builds a
    /// per-class distance table: `O_c / 2 + O_c / 2` is bit-equal to what
    /// the dense view computes per cell, and diagonal classes map to
    /// `0.0` exactly as the dense view zeroes its diagonal; the classes
    /// that occur off the diagonal go along, so the metric's diameter is a
    /// fold over them instead of over the cells. An asymmetric map falls
    /// back to the dense view over a decompressed `O` that the metric
    /// owns (`O(p²)` memory — but an asymmetric model compressed poorly
    /// to begin with).
    fn distance_metric(&self) -> DistanceMetric<'_> {
        if !self.symmetric {
            return DistanceMetric::from_matrix(self.image(&self.table_o));
        }
        let table = (self.table_o.iter().zip(&self.placement))
            .map(|(&o, &at)| match at {
                ClassPlacement::Diagonal => 0.0,
                _ => o / 2.0 + o / 2.0,
            })
            .collect();
        let off_diagonal = (self.placement.iter())
            .map(|&at| at == ClassPlacement::OffDiagonal)
            .collect();
        DistanceMetric::from_classes(Arc::clone(&self.map), table, off_diagonal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;
    use crate::mapping::RankMapping;
    use crate::metric::oracle_distances;
    use crate::profile::TopologyProfile;

    fn ground_truth_costs(nodes: usize) -> CostMatrices {
        let machine = MachineSpec::dual_quad_cluster(nodes);
        TopologyProfile::from_ground_truth(&machine, &RankMapping::Block).cost
    }

    fn assert_bits_equal(a: &CostMatrices, b: &CostMatrices) {
        assert_eq!(a.p(), b.p());
        for (x, y) in a.o.as_slice().iter().zip(b.o.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.l.as_slice().iter().zip(b.l.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Five ranks of three kinds — two, two and one — with one class per
    /// unordered kind pair (0: inside kind 0, 1: kinds 0–1, 2: inside
    /// kind 1, 3: kinds 0–2, 4: kinds 1–2), class 5 on the diagonal, and a
    /// `(2, 2)` table cell that no pair reads.
    fn three_kinds() -> ModelParts {
        #[rustfmt::skip]
        let table = vec![
            0, 1, 3,
            1, 2, 4,
            3, 4, 999,
        ];
        ModelParts {
            p: 5,
            kinds: 3,
            kind_of: vec![0, 1, 0, 1, 2],
            table,
            diag: vec![5; 5],
            overrides: Vec::new(),
            table_o: vec![1.0, 2.0, 3.0, 4.0, 5.0, 0.5],
            table_l: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.0],
        }
    }

    /// The `p × p` grid model of the same dense image, class for class.
    fn grid_model(model: &CompressedCostModel) -> CompressedCostModel {
        let p = model.p();
        let map = model.class_map();
        let grid = (0..p * p).map(|cell| map.class_at(cell / p, cell % p));
        let parts = model.to_parts();
        CompressedCostModel::from_parts(p, grid.collect(), parts.table_o, parts.table_l)
            .expect("a valid model has a valid grid")
    }

    /// Everything a model answers, compared with what the dense image and
    /// the grid model of the same classes answer.
    fn assert_matches_dense_image(model: &CompressedCostModel) {
        let p = model.p();
        let dense = model.to_dense();
        let grid = grid_model(model);
        assert_bits_equal(&grid.to_dense(), &dense);
        assert_eq!(model.is_symmetric(), grid.is_symmetric());
        assert_eq!(model.classes(), grid.classes());
        for i in 0..p {
            for j in 0..p {
                assert_eq!(model.o_at(i, j).to_bits(), dense.o[(i, j)].to_bits());
                assert_eq!(model.l_at(i, j).to_bits(), dense.l[(i, j)].to_bits());
                assert_eq!(
                    model.class_map().row(i).class(j),
                    grid.class_map().class_at(i, j)
                );
            }
        }
        let (metric, by_grid) = (model.distance_metric(), grid.distance_metric());
        let by_cells = DistanceMetric::from_matrix(oracle_distances(&dense));
        let everyone: Vec<usize> = (0..p).collect();
        let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let (mut row, mut other) = (Vec::new(), Vec::new());
        for i in 0..p {
            metric.distances_from(i, &everyone, &mut row);
            by_grid.distances_from(i, &everyone, &mut other);
            assert_eq!(bits(&row), bits(&other));
            by_cells.distances_from(i, &everyone, &mut other);
            assert_eq!(bits(&row), bits(&other));
            for j in 0..p {
                assert_eq!(metric.dist(i, j).to_bits(), by_cells.dist(i, j).to_bits());
            }
        }
        for m in [&by_grid, &by_cells] {
            assert_eq!(metric.diameter().to_bits(), m.diameter().to_bits());
            for members in [&everyone[..], &everyone[p / 2..], &everyone[..p / 2]] {
                assert_eq!(
                    metric.diameter_of(members).to_bits(),
                    m.diameter_of(members).to_bits()
                );
            }
        }
    }

    #[test]
    fn round_trips_ground_truth_bit_identically() {
        let cost = ground_truth_costs(2);
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        assert_bits_equal(&model.to_dense(), &cost);
        // A 16-rank ground-truth machine has a handful of behaviours,
        // not 256 — the point of the representation.
        assert!(model.classes() <= 8, "classes = {}", model.classes());
        assert!(model.is_symmetric());
        for i in 0..cost.p() {
            for j in 0..cost.p() {
                assert_eq!(model.o_at(i, j).to_bits(), cost.o[(i, j)].to_bits());
                assert_eq!(model.l_at(i, j).to_bits(), cost.l[(i, j)].to_bits());
            }
        }
    }

    /// Equal parts hash equally; every stored part some pair reads, and
    /// every bit of the value tables, reaches the fingerprint.
    #[test]
    fn fingerprint_is_a_hash_of_the_stored_parts() {
        let mut base = three_kinds();
        base.table_o.push(9.0);
        base.table_l.push(0.9);
        base.overrides = vec![(0, 4, 2)];
        let fp = |parts: &ModelParts| {
            let model = CompressedCostModel::from_kinds(parts.clone()).expect("valid");
            model.fingerprint()
        };
        let want = fp(&base);
        assert_eq!(fp(&base), want);
        let changed = |edit: &dyn Fn(&mut ModelParts)| {
            let mut parts = base.clone();
            edit(&mut parts);
            fp(&parts)
        };
        assert_ne!(changed(&|p| p.kind_of[4] = 1), want, "kind_of");
        assert_ne!(changed(&|p| p.table[5] = 3), want, "a table cell in use");
        assert_ne!(changed(&|p| p.diag[2] = 6), want, "diag");
        assert_ne!(changed(&|p| p.overrides[0].2 = 1), want, "an override");
        let flip = |v: &mut f64| *v = f64::from_bits(v.to_bits() ^ 1);
        assert_ne!(changed(&|p| flip(&mut p.table_o[3])), want, "one bit of O");
        assert_ne!(changed(&|p| flip(&mut p.table_l[6])), want, "one bit of L");

        // A file holds `to_parts`; reading it back is the same model.
        let model = CompressedCostModel::from_kinds(base).expect("valid");
        let json = serde_json::to_string(&model).unwrap();
        let back: CompressedCostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fingerprint(), want);
        // The storage tag: same image, other storage, other hash.
        assert_ne!(model.to_dense().fingerprint(), want);
    }

    /// Every distance of `model`'s metric against the oracle matrix of
    /// `cost`, and the diameters the oracle gives.
    fn assert_metric_matches_oracle(model: &CompressedCostModel, cost: &CostMatrices) {
        let oracle = oracle_distances(cost);
        let metric = model.distance_metric();
        let p = cost.p();
        for i in 0..p {
            for j in 0..p {
                assert_eq!(
                    metric.dist(i, j).to_bits(),
                    oracle[(i, j)].to_bits(),
                    "({i},{j})"
                );
            }
        }
        let max_over = |members: &[usize]| {
            let pairs = members
                .iter()
                .flat_map(|&i| members.iter().map(move |&j| (i, j)));
            pairs.fold(0.0f64, |max, at| max.max(oracle[at]))
        };
        let everyone: Vec<usize> = (0..p).collect();
        let members: Vec<usize> = (0..p).step_by(3).collect();
        assert_eq!(metric.diameter().to_bits(), max_over(&everyone).to_bits());
        assert_eq!(
            metric.diameter_of(&everyone).to_bits(),
            max_over(&everyone).to_bits()
        );
        assert_eq!(
            metric.diameter_of(&members).to_bits(),
            max_over(&members).to_bits()
        );
    }

    #[test]
    fn distance_metric_matches_dense_bitwise() {
        let cost = ground_truth_costs(2);
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        assert!(model.is_symmetric());
        assert_metric_matches_oracle(&model, &cost);
    }

    #[test]
    fn asymmetric_model_falls_back_to_dense_metric() {
        let mut cost = ground_truth_costs(2);
        cost.o[(0, 5)] *= 1.5; // break symmetry
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        assert!(!model.is_symmetric());
        assert_metric_matches_oracle(&model, &cost);
    }

    #[test]
    fn participant_reads_match_submatrices() {
        let cost = ground_truth_costs(2);
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        let participants = [3usize, 0, 9, 12];
        let sub = cost.submatrices(&participants);
        for (a, &i) in participants.iter().enumerate() {
            for (b, &j) in participants.iter().enumerate() {
                assert_eq!(model.o_at(i, j).to_bits(), sub.o[(a, b)].to_bits());
                assert_eq!(model.l_at(i, j).to_bits(), sub.l[(a, b)].to_bits());
            }
        }
    }

    #[test]
    fn diag_values_colliding_with_pairs_still_get_own_classes() {
        // O_ii equals an off-diagonal O and L is zero everywhere: without
        // the diagonal flag in the dedup key these would share a class
        // and the shared-map metric would zero real distances.
        let cost = CostMatrices {
            o: DenseMatrix::filled(4, 7.0),
            l: DenseMatrix::new(4),
        };
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        assert_eq!(model.classes(), 2);
        let metric = model.distance_metric();
        assert_eq!(metric.dist(0, 0), 0.0);
        assert_eq!(metric.dist(0, 1), 7.0);
    }

    #[test]
    fn class_in_no_cell_does_not_enter_the_diameter() {
        let model =
            CompressedCostModel::from_parts(2, vec![0, 1, 1, 0], vec![0.5, 3.0, 1e9], vec![0.0; 3])
                .expect("class 2 is merely unused");
        let metric = model.distance_metric();
        assert_eq!(metric.diameter(), 3.0);
        assert_eq!(metric.diameter_of(&[0, 1]), 3.0);
    }

    #[test]
    fn incompressible_model_overflows() {
        // 257² distinct O values -> 66049 classes > 65536.
        let p = 257;
        let cost = CostMatrices {
            o: DenseMatrix::from_fn(p, |i, j| (i * p + j) as f64),
            l: DenseMatrix::new(p),
        };
        match CompressedCostModel::from_dense(&cost) {
            Err(CompressError::ClassOverflow { needed }) => assert_eq!(needed, p * p),
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn from_parts_validates_the_contract() {
        let err = |r: Result<CompressedCostModel, CompressError>| r.expect_err("must reject");
        assert_eq!(
            err(CompressedCostModel::from_parts(
                2,
                vec![0; 3],
                vec![0.0],
                vec![0.0]
            )),
            CompressError::GridShape { p: 2, len: 3 }
        );
        assert_eq!(
            err(CompressedCostModel::from_parts(
                1,
                vec![1],
                vec![0.0],
                vec![0.0]
            )),
            CompressError::ClassOutOfRange {
                cell: 0,
                class: 1,
                classes: 1
            }
        );
        assert_eq!(
            err(CompressedCostModel::from_parts(
                1,
                vec![0],
                vec![0.0, 1.0],
                vec![0.0]
            )),
            CompressError::TableMismatch { o: 2, l: 1 }
        );
        // Class 0 on both the diagonal and off it.
        assert_eq!(
            err(CompressedCostModel::from_parts(
                2,
                vec![0, 0, 0, 0],
                vec![1.0],
                vec![0.0]
            )),
            CompressError::DiagonalClassShared { class: 0 }
        );
        // The first bad cell in row-major order is the one reported, on
        // or off the diagonal, also right after a cell of a valid class.
        for (grid, cell) in [
            (vec![0, 1, 7, 0, 1, 7, 1, 1, 0], 2),
            (vec![0, 1, 1, 1, 9, 7, 1, 1, 0], 4),
        ] {
            assert_eq!(
                err(CompressedCostModel::from_parts(
                    3,
                    grid.clone(),
                    vec![0.5, 1.0],
                    vec![0.0, 2.0]
                )),
                CompressError::ClassOutOfRange {
                    cell,
                    class: grid[cell],
                    classes: 2
                }
            );
        }
    }

    #[test]
    fn symmetry_is_decided_cell_for_cell_across_blocks() {
        // One mirrored pair out of step, far enough apart to sit in
        // different comparison blocks.
        let p = 150;
        let mut grid = vec![1u16; p * p];
        for i in 0..p {
            grid[i * p + i] = 0;
        }
        let tables = || (vec![0.5, 1.0, 1.0], vec![0.0, 2.0, 2.0]);
        let (o, l) = tables();
        let even = CompressedCostModel::from_parts(p, grid.clone(), o, l).unwrap();
        assert!(even.is_symmetric());
        grid[3 * p + 140] = 2;
        let (o, l) = tables();
        let skewed = CompressedCostModel::from_parts(p, grid.clone(), o, l).unwrap();
        assert!(!skewed.is_symmetric());
        grid[140 * p + 3] = 2;
        let (o, l) = tables();
        assert!(CompressedCostModel::from_parts(p, grid, o, l)
            .unwrap()
            .is_symmetric());
    }

    #[test]
    fn heap_bytes_reflect_grid_compression() {
        let cost = ground_truth_costs(8); // P = 128
        let model = CompressedCostModel::from_dense(&cost).expect("compresses");
        let dense_bytes = 2 * cost.p() * cost.p() * std::mem::size_of::<f64>();
        assert!(
            model.heap_bytes() * 4 < dense_bytes,
            "compressed {} vs dense {dense_bytes}",
            model.heap_bytes()
        );
    }

    #[test]
    fn kind_space_model_answers_like_its_dense_image() {
        let model = CompressedCostModel::from_kinds(three_kinds()).expect("valid");
        assert!(model.is_symmetric());
        assert_eq!(model.o_at(0, 2), 1.0, "inside kind 0");
        assert_eq!(model.o_at(1, 3), 3.0, "inside kind 1");
        assert_eq!((model.o_at(0, 4), model.o_at(4, 2)), (4.0, 4.0));
        assert_eq!(model.l_at(3, 4), 0.5);
        assert_eq!((model.o_at(4, 4), model.l_at(4, 4)), (0.5, 0.0));
        assert_matches_dense_image(&model);
        // A kind nobody has, between the others, changes nothing.
        #[rustfmt::skip]
        let table = vec![
            0, 777, 1, 3,
            888, 888, 888, 888,
            1, 777, 2, 4,
            3, 777, 4, 999,
        ];
        let spaced = CompressedCostModel::from_kinds(ModelParts {
            kinds: 4,
            kind_of: vec![0, 2, 0, 2, 3],
            table,
            ..three_kinds()
        })
        .expect("an empty kind is no error");
        assert!(spaced.is_symmetric());
        assert_bits_equal(&spaced.to_dense(), &model.to_dense());
        assert_matches_dense_image(&spaced);
    }

    #[test]
    fn overrides_answer_for_their_cells_only() {
        // Class 1's four cells (kinds 0–1) get classes of their own in
        // one orientation, class 0's both in both.
        let mut parts = three_kinds();
        parts.table_o.extend([10.0, 11.0, 12.0, 13.0, 14.0]);
        parts.table_l.extend([1.0; 5]);
        parts.overrides = vec![
            (0, 1, 6),
            (0, 2, 10),
            (0, 3, 7),
            (2, 0, 10),
            (2, 1, 8),
            (2, 3, 9),
        ];
        let model = CompressedCostModel::from_kinds(parts.clone()).expect("valid");
        assert_eq!(model.o_at(0, 1), 10.0);
        assert_eq!(
            model.o_at(1, 0),
            2.0,
            "the mirrored cell keeps its kind pair's class"
        );
        assert_eq!((model.o_at(0, 2), model.o_at(2, 0)), (14.0, 14.0));
        assert_eq!(model.o_at(1, 3), 3.0);
        assert!(!model.is_symmetric());
        assert_matches_dense_image(&model);

        // Mirrored overrides keep the model symmetric, and class 1, now in
        // no cell, leaves the diameter even though its value is the
        // largest.
        parts.table_o[1] = 1e9;
        parts.overrides = vec![
            (0, 1, 6),
            (0, 3, 7),
            (1, 0, 6),
            (1, 2, 8),
            (2, 1, 8),
            (2, 3, 9),
            (3, 0, 7),
            (3, 2, 9),
        ];
        let model = CompressedCostModel::from_kinds(parts).expect("valid");
        assert!(model.is_symmetric());
        assert_eq!(model.distance_metric().diameter(), 13.0);
        assert_matches_dense_image(&model);
    }

    #[test]
    fn shuffled_kinds_decompress_like_their_cells() {
        // Kind runs of every length, rows whose kind changes and repeats,
        // overrides before and after the diagonal.
        for p in [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 16, 21] {
            let kinds = 4;
            let kind_of: Vec<u32> = (0..p).map(|i| ((i * i + i / 3) % kinds) as u32).collect();
            let table = (0..kinds * kinds).map(|c| (c / kinds).max(c % kinds) as u16);
            let mut parts = ModelParts {
                p,
                kinds,
                kind_of,
                table: table.collect(),
                diag: (0..p).map(|i| 4 + (i % 2) as u16).collect(),
                overrides: Vec::new(),
                table_o: (0..8).map(|c| 1.5 + c as f64).collect(),
                table_l: (0..8).map(|c| 0.25 * c as f64).collect(),
            };
            let plain = CompressedCostModel::from_kinds(parts.clone()).expect("valid");
            assert!(plain.is_symmetric());
            assert_matches_dense_image(&plain);
            for i in 0..p {
                for j in [i + 1, i + 4, (3 * i + 1) % p] {
                    if j < p && j != i && (i + j) % 3 == 0 {
                        parts
                            .overrides
                            .push((i as u32, j as u32, 6 + (j % 2) as u16));
                    }
                }
            }
            parts.overrides.sort_unstable();
            parts.overrides.dedup_by_key(|o| (o.0, o.1));
            let patched = CompressedCostModel::from_kinds(parts).expect("valid");
            assert_matches_dense_image(&patched);
        }
    }

    #[test]
    fn identity_kinds_are_the_grid_model() {
        let by_kinds = |grid: &[u16], p: usize, o: &[f64], l: &[f64]| {
            CompressedCostModel::from_kinds(ModelParts {
                p,
                kinds: p,
                kind_of: (0..p as u32).collect(),
                table: grid.to_vec(),
                diag: (0..p).map(|i| grid[i * p + i]).collect(),
                overrides: Vec::new(),
                table_o: o.to_vec(),
                table_l: l.to_vec(),
            })
        };
        let cost = ground_truth_costs(2);
        let by_grid = CompressedCostModel::from_dense(&cost).unwrap();
        let parts = by_grid.to_parts();
        let same = by_kinds(&parts.table, parts.p, &parts.table_o, &parts.table_l).unwrap();
        assert_eq!(same, by_grid);
        assert_eq!(same.heap_bytes(), by_grid.heap_bytes());
        assert_matches_dense_image(&same);
        // And they reject the same grids for the same reason.
        for (p, grid, classes) in [
            (3, vec![0, 1, 7, 0, 1, 7, 1, 1, 0], 2),
            (3, vec![0, 1, 1, 1, 9, 7, 1, 1, 0], 2),
            (2, vec![0, 0, 0, 0], 1),
            (2, vec![0, 1, 1], 2),
            (1, vec![1], 1),
        ] {
            let (o, l) = (vec![0.5; classes], vec![0.0; classes]);
            let wanted = CompressedCostModel::from_parts(p, grid.clone(), o.clone(), l.clone());
            let got = CompressedCostModel::from_kinds(ModelParts {
                p,
                kinds: p,
                kind_of: (0..p as u32).collect(),
                diag: grid.iter().step_by(p + 1).copied().take(p).collect(),
                table: grid,
                overrides: Vec::new(),
                table_o: o,
                table_l: l,
            });
            assert_eq!(got.expect_err("rejected"), wanted.expect_err("rejected"));
        }
    }

    #[test]
    fn from_kinds_validates_the_contract() {
        let err = |parts: ModelParts| CompressedCostModel::from_kinds(parts).expect_err("rejected");
        let out_of_range = |cell: usize, class: u16| CompressError::ClassOutOfRange {
            cell,
            class,
            classes: 6,
        };
        let base = three_kinds;
        assert_eq!(
            err(ModelParts {
                kind_of: vec![0, 1, 0, 3, 2],
                ..base()
            }),
            CompressError::KindOutOfRange {
                rank: 3,
                kind: 3,
                kinds: 3
            }
        );
        assert_eq!(
            err(ModelParts { kinds: 4, ..base() }),
            CompressError::GridShape { p: 4, len: 9 }
        );
        assert_eq!(
            err(ModelParts {
                kinds: usize::MAX,
                ..base()
            }),
            CompressError::GridShape {
                p: usize::MAX,
                len: 9
            }
        );
        assert_eq!(
            err(ModelParts {
                diag: vec![5; 4],
                ..base()
            }),
            CompressError::RankMapShape {
                p: 5,
                kind_of: 5,
                diag: 4
            }
        );
        assert_eq!(
            err(ModelParts { p: 6, ..base() }),
            CompressError::RankMapShape {
                p: 6,
                kind_of: 5,
                diag: 5
            }
        );
        assert_eq!(
            err(ModelParts {
                table_l: vec![0.0; 5],
                ..base()
            }),
            CompressError::TableMismatch { o: 6, l: 5 }
        );
        // Kind pair (1, 2): first rank of kind 1 against the last of 2.
        let mut parts = base();
        parts.table[5] = 6;
        assert_eq!(err(parts), out_of_range(5 + 4, 6));
        // Inside kind 1: its first rank against its last.
        let mut parts = base();
        parts.table[4] = 60;
        assert_eq!(err(parts), out_of_range(5 + 3, 60));
        let mut parts = base();
        parts.diag[3] = 6;
        assert_eq!(err(parts), out_of_range(3 * 5 + 3, 6));
        // The one-rank kind's diagonal class stands in for its (2, 2)
        // cell, so it is met before a bad class in a later rank's.
        let mut parts = base();
        parts.diag = vec![5, 7, 5, 5, 8];
        assert_eq!(err(parts), out_of_range(4 * 5 + 4, 8));
        assert_eq!(
            err(ModelParts {
                overrides: vec![(1, 0, 2), (4, 1, 6)],
                ..base()
            }),
            out_of_range(4 * 5 + 1, 6)
        );
        assert_eq!(
            err(ModelParts {
                overrides: vec![(3, 3, 2)],
                ..base()
            }),
            CompressError::OverrideOnDiagonal { rank: 3 }
        );
        assert_eq!(
            err(ModelParts {
                overrides: vec![(3, 5, 2)],
                ..base()
            }),
            CompressError::OverrideOutOfRange { i: 3, j: 5, p: 5 }
        );
        assert_eq!(
            err(ModelParts {
                overrides: vec![(u32::MAX, 0, 2)],
                ..base()
            }),
            CompressError::OverrideOutOfRange {
                i: u32::MAX,
                j: 0,
                p: 5
            }
        );
        for second in [(1, 2, 2), (1, 3, 4), (0, 4, 0)] {
            assert_eq!(
                err(ModelParts {
                    overrides: vec![(1, 3, 2), second],
                    ..base()
                }),
                CompressError::OverridesUnsorted { at: 1 }
            );
        }
        // The diagonal's class in a cell two ranks read…
        let mut parts = base();
        parts.table[1] = 5;
        assert_eq!(err(parts), CompressError::DiagonalClassShared { class: 5 });
        // …or in an override; not in the cell nobody reads.
        assert_eq!(
            err(ModelParts {
                overrides: vec![(2, 4, 5)],
                ..base()
            }),
            CompressError::DiagonalClassShared { class: 5 }
        );
        let mut parts = base();
        parts.table[8] = 5;
        assert!(CompressedCostModel::from_kinds(parts).is_ok());
    }

    #[test]
    fn asymmetric_kind_table_falls_back_to_the_dense_metric() {
        let mut parts = three_kinds();
        parts.table[1] = 2; // (kind 0, kind 1) ≠ (kind 1, kind 0)
        let model = CompressedCostModel::from_kinds(parts).expect("valid");
        assert!(!model.is_symmetric());
        assert_eq!(model.o_at(0, 1), 3.0);
        assert_eq!(model.o_at(1, 0), 2.0);
        assert_eq!(model.distance_metric().dist(0, 1), 2.5);
        assert_matches_dense_image(&model);
    }

    #[test]
    fn serde_form_goes_through_the_validating_constructor() {
        let mut parts = three_kinds();
        parts.table[8] = 5; // the cell nobody reads, as a model keeps it
        parts.overrides = vec![(0, 4, 2), (4, 0, 2)];
        let model = CompressedCostModel::from_kinds(parts.clone()).expect("valid");
        let json = serde_json::to_string(&model).unwrap();
        assert_eq!(serde_json::to_string(&parts).unwrap(), json);
        let back: CompressedCostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model);

        parts.overrides.swap(0, 1);
        let json = serde_json::to_string(&parts).unwrap();
        let err = serde_json::from_str::<CompressedCostModel>(&json).unwrap_err();
        assert!(err.to_string().contains("override 1"), "{err}");
    }
}
