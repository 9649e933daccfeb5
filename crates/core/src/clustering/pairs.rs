//! Feature-vector equivalence classing of profiling pairs.
//!
//! The `|P|(|P|−1)/2` pairwise benchmarks of §IV-A are embarrassingly
//! decomposable, and on hierarchical machines massively redundant: two
//! pairs whose [`PairFeatures`] agree traverse the same interconnect
//! resources and are statistically exchangeable, so measuring one
//! representative per class (plus a few validation probes) recovers the
//! full matrices. This is the Parsimon pattern — cluster the work items
//! into equivalence classes, simulate one representative per class, fan
//! the representatives out — applied to machine profiling instead of
//! network paths; it lives next to the SSS rank clustering because both
//! are "group, then treat the group by its exemplar" machinery.
//!
//! The classing itself is exact (hash on the feature vector), so the only
//! approximation error is within-class measurement scatter, which the
//! sweep estimates from the probes and bounds in its report.
//!
//! The diagonal `O_ii` measurements are classed too, and a diagonal class
//! is a class like any other: one list holds the off-diagonal classes,
//! then the diagonal ones, and a diagonal member is the cell `(i, i)`.
//!
//! It is also cheap: features depend on a rank only through its *kind*
//! ([`PairFeatureExtractor::rank_kind`]), so the extractor and the hash
//! run once per pair of kinds, and "which class is cell `(i, j)`?" is a
//! few array loads ([`PairClassing::class_of`]) for every later stage of
//! the sweep. Member counts and probes come from the same map by counting
//! each row's partners per kind, without visiting the pairs.

use hbar_topo::features::{PairFeatureExtractor, PairFeatures, RankFeatures};
use hbar_topo::machine::MachineSpec;
use rayon::prelude::*;
use std::collections::HashMap;

/// SplitMix64 finalizer: the standard 64-bit avalanche mix. Used both for
/// decorrelating per-pair noise sub-seeds and for the deterministic
/// reservoir sampling of validation probes.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One equivalence class of profiling work. Its members are rank pairs:
/// `(i, j)`, `i ≠ j`, for an off-diagonal class, and `(i, i)` for a
/// diagonal (`O_ii`) class.
#[derive(Clone, Debug, PartialEq)]
pub struct PairClass {
    /// Member measured on the class's behalf: the first in scan order,
    /// which makes the choice deterministic and, for singleton classes,
    /// the member itself.
    pub representative: (u32, u32),
    /// Number of members (including the representative).
    pub members: usize,
    /// Deterministically reservoir-sampled members (excluding the
    /// representative) whose independent measurements estimate the
    /// within-class scatter.
    pub probes: Vec<(u32, u32)>,
}

/// Table entry of a kind pair that no classed pair has.
const NO_CLASS: u32 = u32::MAX;

/// The complete classing of a `P`-rank placement's profiling work: the
/// classes, and the map from every cell `(i, j)` to its class.
#[derive(Clone, Debug)]
pub struct PairClassing {
    /// Every class: the off-diagonal ones in first-appearance (scan)
    /// order, then the diagonal ones in first-appearance order — the
    /// numbering the compressed cost model keeps.
    pub classes: Vec<PairClass>,
    /// Number of off-diagonal classes; `classes[pair_classes..]` are the
    /// diagonal ones.
    pub pair_classes: usize,
    /// Total off-diagonal pairs classed.
    pub total_pairs: usize,
    p: usize,
    symmetric: bool,
    /// Rank → kind, kinds numbered `0..kinds` in first-appearance order.
    kind_of: Vec<u32>,
    kinds: usize,
    /// `kinds × kinds`, row-major: (kind of the pair's first rank, kind of
    /// its second) → off-diagonal class.
    pair_table: Vec<u32>,
    /// Kind → diagonal class.
    diag_table: Vec<u32>,
}

/// Tuning knobs for [`classify_pairs`].
#[derive(Clone, Copy, Debug)]
pub struct ClassingConfig {
    /// Measure each unordered pair once and mirror (the paper's
    /// symmetric-link assumption); `false` classes ordered pairs.
    pub symmetric: bool,
    /// Validation probes sampled per class (0 disables validation; classes
    /// with fewer members than probes keep every member).
    pub probes_per_class: usize,
    /// Seed of the deterministic probe reservoir.
    pub probe_seed: u64,
}

impl Default for ClassingConfig {
    fn default() -> Self {
        ClassingConfig {
            symmetric: true,
            probes_per_class: 4,
            probe_seed: 0,
        }
    }
}

/// Reservoir decisions evaluated per parallel block.
const PICK_BLOCK: u64 = 1 << 20;

/// Deterministic reservoir sampling (algorithm R with a counter-mode hash
/// as the uniform draw) of `capacity` items from a stream of `offers`:
/// the 1-based ordinals of the offers the slots end up holding. Whether
/// offer `n` is kept, and in which slot, is a function of `(seed, n)`
/// alone, so the stream is not needed and blocks of decisions run in
/// parallel.
fn reservoir_picks(capacity: usize, seed: u64, offers: u64) -> Vec<u64> {
    if capacity == 0 {
        return Vec::new();
    }
    let cap = capacity as u64;
    let mut slots: Vec<u64> = (1..=cap.min(offers)).collect();
    let blocks: Vec<u64> = (cap + 1..=offers).step_by(PICK_BLOCK as usize).collect();
    let kept: Vec<Vec<(usize, u64)>> = blocks
        .into_par_iter()
        .map(|lo| {
            (lo..=offers.min(lo + PICK_BLOCK - 1))
                .filter_map(|n| {
                    let r = splitmix64(seed ^ n) % n;
                    (r < cap).then_some((r as usize, n))
                })
                .collect()
        })
        .collect();
    for (slot, n) in kept.into_iter().flatten() {
        slots[slot] = n;
    }
    slots
}

impl PairClassing {
    /// Number of ranks classed.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Whether unordered pairs were classed (each `i < j` once) or
    /// ordered ones.
    pub fn symmetric(&self) -> bool {
        self.symmetric
    }

    /// Number of distinct rank kinds, `K`.
    pub fn kinds(&self) -> usize {
        self.kinds
    }

    /// Rank → kind, kinds numbered `0..K` in first-appearance order.
    pub fn kind_of(&self) -> &[u32] {
        &self.kind_of
    }

    /// Index into [`Self::classes`] of the class of the pairs of distinct
    /// ranks whose first has kind `a` and whose second has kind `b`,
    /// `None` when no classed pair has them in that order. A symmetric
    /// classing classes `(min, max)` only, so under block placement it
    /// answers `None` for every `a` that first appears after `b`.
    #[inline]
    pub fn kind_pair_class(&self, a: usize, b: usize) -> Option<usize> {
        debug_assert!(a < self.kinds && b < self.kinds, "kind out of range");
        let c = self.pair_table[a * self.kinds + b];
        (c != NO_CLASS).then_some(c as usize)
    }

    /// Index into [`Self::classes`] of the class of cell `(i, j)`: rank
    /// `i`'s diagonal class when `i == j`. A symmetric classing answers
    /// both orientations of a pair with the class of `(min, max)`.
    #[inline]
    pub fn class_of(&self, i: usize, j: usize) -> usize {
        if i == j {
            return self.diag_table[self.kind_of[i] as usize] as usize;
        }
        let (a, b) = if self.symmetric && j < i {
            (j, i)
        } else {
            (i, j)
        };
        self.pair_table[self.kind_of[a] as usize * self.kinds + self.kind_of[b] as usize] as usize
    }

    /// The classed partners of rank `i` in scan order: the later ranks
    /// under a symmetric classing, every other rank under an ordered one.
    pub fn partners(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let start = if self.symmetric { i + 1 } else { 0 };
        (start..self.p).filter(move |&j| j != i)
    }

    /// Walks the classed pairs in scan order without visiting them: row
    /// `i` has a known number of partners of each kind, so a class's
    /// members in the row are a sum over kinds. Returns every pair
    /// class's member count and, for each `(class, n)` of `wanted`
    /// (sorted), the class's `n`-th member, the representative being
    /// member 0; only rows that hold a wanted member are searched.
    fn scan(&self, wanted: &[(u32, u64)]) -> (Vec<u64>, Vec<(u32, u32)>) {
        let classes = self.pair_classes;
        let mut head = vec![wanted.len(); classes];
        for (q, &(c, _)) in wanted.iter().enumerate().rev() {
            head[c as usize] = q;
        }
        let mut found = vec![(0, 0); wanted.len()];
        let mut members = vec![0u64; classes];
        let mut in_row = vec![0u64; classes];
        let mut touched = Vec::new();
        let mut partners = vec![0u64; self.kinds];
        for &k in &self.kind_of {
            partners[k as usize] += 1;
        }
        for i in 0..self.p {
            let ka = self.kind_of[i] as usize;
            let table_row = &self.pair_table[ka * self.kinds..][..self.kinds];
            partners[ka] -= 1;
            // Neighbouring kinds mostly share a class: add up each run of
            // equal table entries before touching the class's counter.
            let mut kb = 0;
            while kb < self.kinds {
                let c = table_row[kb];
                let mut n = 0;
                while kb < self.kinds && table_row[kb] == c {
                    n += partners[kb];
                    kb += 1;
                }
                if n > 0 {
                    in_row[c as usize] += n;
                    touched.push(c as usize);
                }
            }
            for c in touched.drain(..) {
                let n = std::mem::take(&mut in_row[c]);
                while let Some(&(_, ordinal)) = wanted
                    .get(head[c])
                    .filter(|q| q.0 as usize == c && q.1 < members[c] + n)
                {
                    let j = self
                        .partners(i)
                        .filter(|&j| self.class_of(i, j) == c)
                        .nth((ordinal - members[c]) as usize)
                        .expect("a row holds the members its kind counts add up to");
                    found[head[c]] = (i as u32, j as u32);
                    head[c] += 1;
                }
                members[c] += n;
            }
            if !self.symmetric {
                partners[ka] += 1;
            }
        }
        (members, found)
    }
}

/// Classes every profiling pair (and every diagonal) of a `p`-rank
/// placement by its feature vector.
///
/// Scan order is the exhaustive sweep's enumeration order — `i` outer,
/// `j` inner — so representatives (first member seen) are deterministic
/// and independent of thread count. The extractor is called once per pair
/// of rank kinds that some classed pair has, never per pair of ranks.
///
/// # Panics
/// Panics if `p < 2` or `cores` does not cover `p` ranks.
pub fn classify_pairs(
    machine: &MachineSpec,
    cores: &[usize],
    p: usize,
    extractor: &dyn PairFeatureExtractor,
    cfg: &ClassingConfig,
) -> PairClassing {
    assert!(p >= 2, "classing needs at least two ranks, got {p}");
    assert!(
        cores.len() >= p,
        "placement covers {} ranks, need {p}",
        cores.len()
    );

    // Kinds, and each kind's first and last rank.
    let mut kind_ids: HashMap<u64, u32> = HashMap::new();
    let (mut first, mut last) = (Vec::new(), Vec::new());
    let kind_of: Vec<u32> = (0..p)
        .map(|i| {
            let k = *kind_ids
                .entry(extractor.rank_kind(machine, i, cores[i]))
                .or_insert(first.len() as u32);
            if k as usize == first.len() {
                first.push(i);
                last.push(i);
            } else {
                last[k as usize] = i;
            }
            k
        })
        .collect();
    let kinds = first.len();

    // Kind pair → pair class, numbered as the features turn up. A kind
    // pair has a classed member exactly when `(first, last)` is one.
    let mut pair_ids: HashMap<PairFeatures, u32> = HashMap::new();
    let mut pair_table = vec![NO_CLASS; kinds * kinds];
    // Neighbouring kinds mostly share features: skip the hash then.
    let mut previous = None;
    for (table_row, &i) in pair_table.chunks_exact_mut(kinds).zip(&first) {
        for (cell, &j) in table_row.iter_mut().zip(&last) {
            if if cfg.symmetric { i < j } else { i != j } {
                let f = extractor.pair_features(machine, (i, j), (cores[i], cores[j]));
                *cell = match previous {
                    Some((seen, id)) if seen == f => id,
                    _ => {
                        let next = pair_ids.len() as u32;
                        *pair_ids.entry(f).or_insert(next)
                    }
                };
                previous = Some((f, *cell));
            }
        }
    }
    let pair_classes = pair_ids.len();

    // Kind → diagonal class, numbered after the pair classes. Kinds are
    // numbered by first rank, so the classes come out in first-appearance
    // order.
    let mut diag_ids: HashMap<RankFeatures, u32> = HashMap::new();
    let diag_table: Vec<u32> = first
        .iter()
        .map(|&i| {
            let next = (pair_classes + diag_ids.len()) as u32;
            *diag_ids
                .entry(extractor.rank_features(machine, i, cores[i]))
                .or_insert(next)
        })
        .collect();

    let mut classing = PairClassing {
        classes: Vec::new(),
        pair_classes,
        total_pairs: if cfg.symmetric {
            p * (p - 1) / 2
        } else {
            p * (p - 1)
        },
        p,
        symmetric: cfg.symmetric,
        kind_of,
        kinds,
        pair_table,
        diag_table,
    };

    // Renumber the pair classes by first member in scan order, which is
    // also the representative. A class's first member lies in the first
    // row of one of its kinds.
    let mut renumbered = vec![NO_CLASS; pair_classes];
    let mut classes = Vec::with_capacity(pair_classes + diag_ids.len());
    for &i in &first {
        if classes.len() == pair_classes {
            break;
        }
        for j in classing.partners(i) {
            let c = classing.class_of(i, j);
            if renumbered[c] == NO_CLASS {
                renumbered[c] = classes.len() as u32;
                classes.push(PairClass {
                    representative: (i as u32, j as u32),
                    members: 0,
                    probes: Vec::new(),
                });
            }
        }
    }
    classing.classes = classes;
    for cell in &mut classing.pair_table {
        if *cell != NO_CLASS {
            *cell = renumbered[*cell as usize];
        }
    }

    let (members, _) = classing.scan(&[]);
    let picks: Vec<Vec<u64>> = members
        .iter()
        .enumerate()
        .map(|(c, &m)| {
            let seed = splitmix64(cfg.probe_seed ^ c as u64);
            reservoir_picks(cfg.probes_per_class, seed, m - 1)
        })
        .collect();
    let mut wanted: Vec<(u32, u64)> = picks
        .iter()
        .enumerate()
        .flat_map(|(c, ns)| ns.iter().map(move |&n| (c as u32, n)))
        .collect();
    wanted.sort_unstable();
    let found = if wanted.is_empty() {
        Vec::new()
    } else {
        classing.scan(&wanted).1
    };
    for (c, (class, ns)) in classing.classes.iter_mut().zip(&picks).enumerate() {
        class.members = members[c] as usize;
        class.probes = ns
            .iter()
            .map(|&n| {
                let q = wanted
                    .binary_search(&(c as u32, n))
                    .expect("every pick is wanted");
                found[q]
            })
            .collect();
    }

    // The diagonal classes' members are few enough to list.
    let mut diag_ranks = vec![Vec::new(); diag_ids.len()];
    for i in 0..p {
        diag_ranks[classing.class_of(i, i) - pair_classes].push(i as u32);
    }
    for (c, ranks) in diag_ranks.into_iter().enumerate() {
        let seed = splitmix64(cfg.probe_seed ^ 0xD1A6_0000 ^ c as u64);
        classing.classes.push(PairClass {
            representative: (ranks[0], ranks[0]),
            members: ranks.len(),
            probes: reservoir_picks(cfg.probes_per_class, seed, ranks.len() as u64 - 1)
                .into_iter()
                .map(|n| (ranks[n as usize], ranks[n as usize]))
                .collect(),
        });
    }
    classing
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_topo::features::{ExactExtractor, TopologyExtractor};
    use hbar_topo::mapping::RankMapping;

    fn classing_for(
        machine: &MachineSpec,
        p: usize,
        extractor: &dyn PairFeatureExtractor,
        cfg: &ClassingConfig,
    ) -> PairClassing {
        let cores = RankMapping::Block.place(machine, p);
        classify_pairs(machine, &cores, p, extractor, cfg)
    }

    #[test]
    fn homogeneous_cluster_collapses_to_link_classes() {
        let machine = MachineSpec::dual_quad_cluster(4);
        let classing = classing_for(
            &machine,
            32,
            &TopologyExtractor::default(),
            &ClassingConfig::default(),
        );
        // Two same-socket classes (socket identity is kept for
        // asymmetric-NUMA future-proofing) + cross-socket + inter-node,
        // then one diagonal class per socket.
        assert_eq!(classing.classes.len(), 6);
        assert_eq!(classing.pair_classes, 4);
        assert_eq!(classing.total_pairs, 32 * 31 / 2);
        let (pairs, diags) = classing.classes.split_at(classing.pair_classes);
        let members = |classes: &[PairClass]| classes.iter().map(|c| c.members).sum::<usize>();
        assert_eq!(
            members(pairs),
            classing.total_pairs,
            "partition covers all pairs"
        );
        assert_eq!(members(diags), 32, "and all ranks");
    }

    #[test]
    fn exact_extractor_yields_singletons() {
        let machine = MachineSpec::new(2, 1, 2);
        let classing = classing_for(
            &machine,
            4,
            &ExactExtractor::default(),
            &ClassingConfig::default(),
        );
        // The exhaustive sweep's workload: 6 pairs and 4 diagonals.
        assert_eq!((classing.classes.len(), classing.pair_classes), (6 + 4, 6));
        assert!(classing
            .classes
            .iter()
            .all(|c| c.members == 1 && c.probes.is_empty()));
    }

    #[test]
    fn representative_is_first_member_in_scan_order() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let classing = classing_for(
            &machine,
            16,
            &TopologyExtractor::default(),
            &ClassingConfig::default(),
        );
        // Block placement on a dual-quad: 0..3 socket 0, 4..7 socket 1.
        let representative = |i, j| classing.classes[classing.class_of(i, j)].representative;
        assert_eq!(representative(2, 3), (0, 1), "same socket");
        assert_eq!(representative(7, 1), (0, 4), "cross socket");
        assert_eq!(representative(9, 9), (0, 0), "socket 0 diagonal");
        assert_eq!(representative(13, 13), (4, 4), "socket 1 diagonal");
    }

    #[test]
    fn probes_exclude_representative_and_stay_in_class() {
        let machine = MachineSpec::dual_hex_cluster(4);
        let cores = RankMapping::RoundRobin.place(&machine, 48);
        let ex = TopologyExtractor::default();
        let classing = classify_pairs(&machine, &cores, 48, &ex, &ClassingConfig::default());
        for (c, class) in classing.classes.iter().enumerate() {
            assert!(class.probes.len() <= 4);
            assert!(class.probes.len() < class.members);
            for &(i, j) in &class.probes {
                assert_ne!((i, j), class.representative);
                let c_probe = classing.class_of(i as usize, j as usize);
                assert_eq!(c_probe, c, "probe left its class");
            }
        }
    }

    #[test]
    fn probe_selection_is_deterministic() {
        let machine = MachineSpec::dual_quad_cluster(8);
        let a = classing_for(
            &machine,
            64,
            &TopologyExtractor::default(),
            &ClassingConfig::default(),
        );
        let b = classing_for(
            &machine,
            64,
            &TopologyExtractor::default(),
            &ClassingConfig::default(),
        );
        assert_eq!(a.classes, b.classes);
        // A different probe seed moves the probes but not the classes.
        let c = classing_for(
            &machine,
            64,
            &TopologyExtractor::default(),
            &ClassingConfig {
                probe_seed: 99,
                ..ClassingConfig::default()
            },
        );
        assert_eq!(a.classes.len(), c.classes.len());
        assert!(a
            .classes
            .iter()
            .zip(&c.classes)
            .all(|(x, y)| x.representative == y.representative));
        assert!(a
            .classes
            .iter()
            .zip(&c.classes)
            .any(|(x, y)| x.probes != y.probes));
    }

    #[test]
    fn asymmetric_mode_classes_ordered_pairs() {
        let machine = MachineSpec::new(1, 2, 1);
        let classing = classing_for(
            &machine,
            2,
            &ExactExtractor::default(),
            &ClassingConfig {
                symmetric: false,
                ..ClassingConfig::default()
            },
        );
        assert_eq!(classing.total_pairs, 2);
        assert_eq!(classing.pair_classes, 2);
    }

    #[test]
    fn class_lookup_round_trips() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let cores = RankMapping::RoundRobin.place(&machine, 16);
        let ex = TopologyExtractor::default();
        let classing = classify_pairs(&machine, &cores, 16, &ex, &ClassingConfig::default());
        for i in 0..16 {
            for j in 0..16 {
                let c = classing.class_of(i, j);
                let (a, b) = classing.classes[c].representative;
                let (a, b) = (a as usize, b as usize);
                if i == j {
                    assert!(c >= classing.pair_classes && a == b);
                    assert_eq!(
                        ex.rank_features(&machine, i, cores[i]),
                        ex.rank_features(&machine, a, cores[a])
                    );
                } else {
                    assert!(c < classing.pair_classes);
                    let (i, j) = (i.min(j), i.max(j));
                    assert_eq!(
                        ex.pair_features(&machine, (i, j), (cores[i], cores[j])),
                        ex.pair_features(&machine, (a, b), (cores[a], cores[b]))
                    );
                }
            }
        }
    }

    #[test]
    fn splitmix_decorrelates_adjacent_inputs() {
        // Adjacent inputs (the old `i * p + j` failure mode) must land far
        // apart: check no two of 4096 consecutive outputs share low 32 bits.
        let mut seen = std::collections::HashSet::new();
        for k in 0..4096u64 {
            assert!(seen.insert(splitmix64(k) as u32), "collision at {k}");
        }
    }
}
