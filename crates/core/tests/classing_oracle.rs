//! `classify_pairs` against its per-pair reference.
//!
//! The classing evaluates the extractor on pairs of rank *kinds* and
//! derives members, representatives and probes by counting. The reference
//! below is the definition it must agree with: visit every pair in scan
//! order, hash its features, stream the members through a reservoir, then
//! the same over the ranks for the diagonal classes. The two must produce
//! equal class lists field for field — index order, representatives,
//! member counts, probes — and a class map that answers every cell,
//! diagonal included, with the class the reference put it in.

use hbar_core::clustering::{classify_pairs, splitmix64, ClassingConfig, PairClass, PairClassing};
use hbar_topo::features::{
    ExactExtractor, PairFeatureExtractor, PairFeatures, RankFeatures, TopologyExtractor,
};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Streaming algorithm R, the accept decision a counter-mode hash of the
/// offer's ordinal.
struct Reservoir<T> {
    items: Vec<T>,
    capacity: usize,
    seen: u64,
    seed: u64,
}

impl<T> Reservoir<T> {
    fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            items: Vec::new(),
            capacity,
            seen: 0,
            seed,
        }
    }

    fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        let r = splitmix64(self.seed ^ self.seen) % self.seen;
        if (r as usize) < self.capacity {
            self.items[r as usize] = item;
        }
    }
}

/// The per-pair classing: one extractor call and one hash per cell.
struct Reference {
    /// Pair classes, then diagonal classes.
    classes: Vec<PairClass>,
    pair_classes: usize,
    total_pairs: usize,
    /// The class each feature vector went to.
    pair_index: HashMap<PairFeatures, usize>,
    diag_index: HashMap<RankFeatures, usize>,
}

fn classify_pairs_reference(
    machine: &MachineSpec,
    cores: &[usize],
    p: usize,
    extractor: &dyn PairFeatureExtractor,
    cfg: &ClassingConfig,
) -> Reference {
    let mut classes: Vec<PairClass> = Vec::new();
    let mut reservoirs: Vec<Reservoir<(u32, u32)>> = Vec::new();
    // Offers `cell` to the class at `idx`, opening it when `idx` is new.
    let mut offer = |idx: usize, cell: (u32, u32), seed: u64| {
        if idx == classes.len() {
            classes.push(PairClass {
                representative: cell,
                members: 1,
                probes: Vec::new(),
            });
            reservoirs.push(Reservoir::new(cfg.probes_per_class, seed));
        } else {
            classes[idx].members += 1;
            reservoirs[idx].offer(cell);
        }
    };

    let mut pair_index: HashMap<PairFeatures, usize> = HashMap::new();
    let mut total_pairs = 0;
    for i in 0..p {
        for j in 0..p {
            if i == j || (cfg.symmetric && j < i) {
                continue;
            }
            let f = extractor.pair_features(machine, (i, j), (cores[i], cores[j]));
            total_pairs += 1;
            let fresh = pair_index.len();
            let idx = *pair_index.entry(f).or_insert(fresh);
            offer(
                idx,
                (i as u32, j as u32),
                splitmix64(cfg.probe_seed ^ idx as u64),
            );
        }
    }
    let pair_classes = pair_index.len();

    let mut diag_index: HashMap<RankFeatures, usize> = HashMap::new();
    for (i, &core) in cores.iter().enumerate().take(p) {
        let f = extractor.rank_features(machine, i, core);
        let fresh = pair_classes + diag_index.len();
        let idx = *diag_index.entry(f).or_insert(fresh);
        let seed = splitmix64(cfg.probe_seed ^ 0xD1A6_0000 ^ (idx - pair_classes) as u64);
        offer(idx, (i as u32, i as u32), seed);
    }
    for (class, reservoir) in classes.iter_mut().zip(reservoirs) {
        class.probes = reservoir.items;
    }
    Reference {
        classes,
        pair_classes,
        total_pairs,
        pair_index,
        diag_index,
    }
}

/// Topology features through the trait's default `rank_kind`: every rank
/// its own kind, few classes.
struct NoKinds(TopologyExtractor);

impl PairFeatureExtractor for NoKinds {
    fn pair_features(
        &self,
        machine: &MachineSpec,
        ranks: (usize, usize),
        cores: (usize, usize),
    ) -> PairFeatures {
        self.0.pair_features(machine, ranks, cores)
    }
    fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures {
        self.0.rank_features(machine, rank, core)
    }
}

/// Direction-sensitive features over `(node, socket)` kinds: `(a, b)` and
/// `(b, a)` are different classes, and under an interleaved placement a
/// symmetric scan meets both orientations of a kind pair.
struct Directed(TopologyExtractor);

impl PairFeatureExtractor for Directed {
    fn pair_features(
        &self,
        machine: &MachineSpec,
        ranks: (usize, usize),
        cores: (usize, usize),
    ) -> PairFeatures {
        let (a, b) = (machine.core(cores.0), machine.core(cores.1));
        let mut f = self.0.pair_features(machine, ranks, cores);
        f.refinement =
            ((a.socket as u64) << 32) | ((b.socket as u64) << 1) | (a.node < b.node) as u64;
        f
    }
    fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures {
        self.0.rank_features(machine, rank, core)
    }
    fn rank_kind(&self, machine: &MachineSpec, rank: usize, core: usize) -> u64 {
        self.0.rank_kind(machine, rank, core)
    }
}

fn extractor(which: usize) -> Box<dyn PairFeatureExtractor> {
    match which {
        0 => Box::new(TopologyExtractor::default()),
        1 => Box::new(ExactExtractor::default()),
        2 => Box::new(NoKinds(TopologyExtractor::default())),
        _ => Box::new(Directed(TopologyExtractor::default())),
    }
}

/// Block, round-robin, or a seeded shuffle of the machine's cores.
fn placement(machine: &MachineSpec, which: usize, p: usize, seed: u64) -> Vec<usize> {
    match which {
        0 => RankMapping::Block.place(machine, p),
        1 => RankMapping::RoundRobin.place(machine, p),
        _ => {
            let mut cores: Vec<usize> = (0..machine.total_cores()).collect();
            for i in (1..cores.len()).rev() {
                cores.swap(i, (splitmix64(seed ^ i as u64) % (i as u64 + 1)) as usize);
            }
            RankMapping::Custom(cores).place(machine, p)
        }
    }
}

fn assert_matches_reference(
    machine: &MachineSpec,
    cores: &[usize],
    p: usize,
    extractor: &dyn PairFeatureExtractor,
    cfg: &ClassingConfig,
) -> PairClassing {
    let want = classify_pairs_reference(machine, cores, p, extractor, cfg);
    let got = classify_pairs(machine, cores, p, extractor, cfg);
    assert_eq!(got.classes, want.classes);
    assert_eq!(got.pair_classes, want.pair_classes);
    assert_eq!(got.total_pairs, want.total_pairs);
    assert_eq!(got.p(), p);
    assert_eq!(got.symmetric(), cfg.symmetric);
    for i in 0..p {
        for j in 0..p {
            let class = if i == j {
                want.diag_index[&extractor.rank_features(machine, i, cores[i])]
            } else {
                let (a, b) = if cfg.symmetric {
                    (i.min(j), i.max(j))
                } else {
                    (i, j)
                };
                let f = extractor.pair_features(machine, (a, b), (cores[a], cores[b]));
                want.pair_index[&f]
            };
            assert_eq!(got.class_of(i, j), class, "({i}, {j})");
        }
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn classing_equals_per_pair_reference(
        (nodes, sockets, per_socket) in (1usize..6, 1usize..4, 1usize..5),
        short in 0usize..5,
        mapping in 0usize..3,
        which in 0usize..4,
        symmetric in any::<bool>(),
        probes in 0usize..3,
        seed in any::<u64>(),
    ) {
        let machine = MachineSpec::new(nodes, sockets, per_socket);
        // Usually not a multiple of the node size.
        let p = machine.total_cores().saturating_sub(short);
        prop_assume!(p >= 2);
        let cores = placement(&machine, mapping, p, seed);
        let cfg = ClassingConfig { symmetric, probes_per_class: [0, 1, 4][probes], probe_seed: seed };
        assert_matches_reference(&machine, &cores, p, extractor(which).as_ref(), &cfg);
    }
}

/// Large enough that classes hold many more members than probe slots, so
/// late reservoir replacements and the parallel decision blocks are in
/// play, and that a placement longer than `p` is cut, not read.
#[test]
fn large_round_robin_classing_equals_reference() {
    let machine = MachineSpec::new(40, 2, 6);
    let cores = RankMapping::RoundRobin.place(&machine, 480);
    for symmetric in [true, false] {
        let cfg = ClassingConfig {
            symmetric,
            probes_per_class: 4,
            probe_seed: 7,
        };
        let got =
            assert_matches_reference(&machine, &cores, 451, &TopologyExtractor::default(), &cfg);
        assert!(got.classes.iter().any(|c| c.members > 10_000));
    }
}

/// Counts `pair_features` calls of the wrapped extractor.
struct Counting<'a> {
    inner: &'a dyn PairFeatureExtractor,
    pair_calls: AtomicUsize,
}

/// The extractor runs on pairs of kinds, never on pairs of ranks: a
/// dual-quad machine at P = 512 has K = 128 `(node, socket)` kinds.
#[test]
fn classing_calls_the_extractor_per_kind_pair() {
    let machine = MachineSpec::new(64, 2, 4);
    let cores = RankMapping::Block.place(&machine, 512);
    let topo = TopologyExtractor::default();
    let counting = Counting {
        inner: &topo,
        pair_calls: AtomicUsize::new(0),
    };
    let classing = classify_pairs(&machine, &cores, 512, &counting, &ClassingConfig::default());
    assert_eq!(classing.pair_classes, 4);
    let calls = counting.pair_calls.load(Ordering::Relaxed);
    assert!(calls <= 128 * 128, "{calls} pair_features calls");
}

impl PairFeatureExtractor for Counting<'_> {
    fn pair_features(
        &self,
        machine: &MachineSpec,
        ranks: (usize, usize),
        cores: (usize, usize),
    ) -> PairFeatures {
        self.pair_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.pair_features(machine, ranks, cores)
    }
    fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures {
        self.inner.rank_features(machine, rank, core)
    }
    fn rank_kind(&self, machine: &MachineSpec, rank: usize, core: usize) -> u64 {
        self.inner.rank_kind(machine, rank, core)
    }
}
