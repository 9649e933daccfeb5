//! Pins the decomposed sweep's adaptive-repetition behavior to golden
//! hashes, and holds those to an oracle that rebuilds them from whole
//! pair measurements. The configuration deliberately drives every layer
//! of the repetition logic — multi-member classes, validation probes, a
//! tolerance tight enough to force growth rounds (of one component alone
//! for some classes), and the explosion safety valve disabled — so any
//! drift in the rule's arithmetic (median, relative spread, per-component
//! grow/stop decision) changes the scattered matrices and flips the hash.
//!
//! Also pins the exhaustive sweep (`SweepConfig::exact`) — and through
//! it the simulation engine, the pair benchmarks and the noise stream —
//! to the profiles of the pre-rework engine.
//!
//! And pins the measurement plan itself: the batches the sweep hands its
//! executor, in order, descriptor for descriptor. A fleet's workers see
//! that order, so a sweep that reorders or rebatches its work fails here
//! even when every value it scatters is unchanged.

use hbar_core::clustering::{classify_pairs, ClassingConfig, PairClassing};
use hbar_simnet::profiling::{diag_sub_seed, pair_sub_seed, ProfilingConfig};
use hbar_simnet::sweep::{
    execute_descriptor, measure_profile_decomposed, noise_regime_of, LocalExecutor, SweepConfig,
    SweepReport,
};
use hbar_simnet::{
    measure_profile_compressed, DescriptorExecutor, NoiseModel, PairSample, PairWorkDescriptor,
    SpillConfig, SweepError, WorkKind,
};
use hbar_topo::cost::CostProvider;
use hbar_topo::features::TopologyExtractor;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use hbar_topo::regress::median;

/// FNV-1a, fed 64-bit words as little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over the bit patterns of both cost matrices, row-major O then L.
fn profile_fingerprint(p: &TopologyProfile) -> u64 {
    let mut hash = Fnv::new();
    for v in p.cost.o.as_slice().iter().chain(p.cost.l.as_slice()) {
        hash.eat(v.to_bits());
    }
    hash.0
}

/// Runs batches on the local thread pool and hashes each one as it is
/// handed over: its length, then every descriptor's fields in order.
struct Recording {
    inner: LocalExecutor,
    plan: Fnv,
}

impl DescriptorExecutor for Recording {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        self.plan.eat(descriptors.len() as u64);
        for d in descriptors {
            let kind = match d.kind {
                WorkKind::Pair => 0,
                WorkKind::Diag => 1,
                WorkKind::PingPong => 2,
                WorkKind::Burst => 3,
            };
            for word in [d.id, kind, d.i, d.j, d.core_a, d.core_b] {
                self.plan.eat(u64::from(word));
            }
            self.plan.eat(d.sub_seed);
            self.plan.eat(u64::from(d.rep_scale));
        }
        self.inner.execute_batch(descriptors)
    }
}

/// The frozen configuration: fast schedule, 2 probes per class, a 1%
/// tolerance that realistic noise cannot meet in round 0 (so growth
/// rounds actually run), and no explosion.
fn pinned_config() -> SweepConfig {
    SweepConfig {
        profiling: ProfilingConfig::fast(),
        probes_per_class: 2,
        probe_seed: 0,
        ci_rel_tol: 0.01,
        max_growth_rounds: 2,
        explode_rel_tol: f64::INFINITY,
        exact_classes: false,
    }
}

/// The pinned configuration with every class that has any scatter
/// exploded.
fn exploded_config() -> SweepConfig {
    SweepConfig {
        explode_rel_tol: 0.0,
        ..pinned_config()
    }
}

/// The sweep under `cfg`, executed on the local thread pool.
fn local_sweep(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
) -> (TopologyProfile, SweepReport) {
    let mut local = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    measure_profile_decomposed(machine, mapping, p, noise, cfg, &mut local).unwrap()
}

fn pinned_profile(p: usize) -> (TopologyProfile, SweepReport) {
    let machine = MachineSpec::dual_quad_cluster(p.div_ceil(8));
    let noise = NoiseModel::realistic(42);
    local_sweep(&machine, &RankMapping::Block, p, noise, &pinned_config())
}

#[test]
fn adaptive_repetition_is_bit_identical_to_pre_refactor_behavior_p8() {
    let (profile, report) = pinned_profile(8);
    assert!(
        report.growth_rounds > 0,
        "the pinned tolerance must actually exercise the stopping rule"
    );
    assert_eq!(
        profile_fingerprint(&profile),
        GOLDEN_P8,
        "clustered profile at P=8 diverged from the per-component stopping rule"
    );
}

#[test]
fn adaptive_repetition_is_bit_identical_to_pre_refactor_behavior_p16() {
    let (profile, report) = pinned_profile(16);
    assert!(
        report.growth_rounds > 0,
        "the pinned tolerance must actually exercise the stopping rule"
    );
    assert_eq!(
        profile_fingerprint(&profile),
        GOLDEN_P16,
        "clustered profile at P=16 diverged from the per-component stopping rule"
    );
}

/// The class estimates of a sweep under `cfg` at the pinned seeds,
/// rebuilt by hand from whole `Pair` (and `Diag`) descriptors, sharing
/// nothing with the sweep but the classing and the leaf: every member of a
/// class measured at the class's final `O` scale (from `report`) for its
/// `O` and at its final `L` scale for its `L`, then per-component medians.
fn whole_pair_estimates(
    p: usize,
    cfg: &SweepConfig,
    report: &SweepReport,
) -> (PairClassing, Vec<(f64, f64)>) {
    let machine = MachineSpec::dual_quad_cluster(p.div_ceil(8));
    let noise = NoiseModel::realistic(42);
    let cores = RankMapping::Block.place(&machine, p);
    let classing = classify_pairs(
        &machine,
        &cores,
        p,
        &TopologyExtractor::with_noise_regime(noise_regime_of(&noise)),
        &ClassingConfig {
            symmetric: cfg.profiling.symmetric,
            probes_per_class: cfg.probes_per_class,
            probe_seed: cfg.probe_seed,
        },
    );
    let measure = |(i, j): (u32, u32), rep_scale: u32| {
        let (i, j) = (i as usize, j as usize);
        let (kind, partner, sub_seed) = if i == j {
            (WorkKind::Diag, (i + 1) % p, diag_sub_seed(i, noise.seed))
        } else {
            (WorkKind::Pair, j, pair_sub_seed(i, j, noise.seed))
        };
        let d = PairWorkDescriptor {
            id: 0,
            kind,
            i: i as u32,
            j: partner as u32,
            core_a: cores[i] as u32,
            core_b: cores[partner] as u32,
            sub_seed,
            rep_scale,
        };
        execute_descriptor(&machine, noise, &cfg.profiling, &d)
    };
    let estimates: Vec<(f64, f64)> = (classing.classes.iter().zip(&report.class_stats))
        .map(|(class, stats)| {
            let members = [class.representative]
                .into_iter()
                .chain(class.probes.clone());
            let (mut os, mut ls): (Vec<f64>, Vec<f64>) = members
                .map(|cell| {
                    let o = measure(cell, stats.rep_scale_o).o;
                    (o, measure(cell, stats.rep_scale_l).l)
                })
                .unzip();
            (median(&mut os), median(&mut ls))
        })
        .collect();
    (classing, estimates)
}

/// What justifies the growth goldens: the sweep that grows each component
/// on its own answers, bit for bit, what whole-pair descriptors at each
/// class's final per-component scale answer — and at the pinned tolerance
/// some class does stop one component before the other. `GOLDEN_P8` /
/// `GOLDEN_P16` are the pinned profiles with every cell its class's
/// rebuilt estimate. `GOLDEN_EXPLODED_MODEL_P16` is a model whose class
/// table holds the rebuilt estimates (its exploded members' overrides are
/// the exhaustive sweep's values, which `tests/sweep.rs` holds to its own
/// oracle).
#[test]
fn growth_goldens_are_whole_pair_measurements() {
    for (p, golden) in [(8usize, GOLDEN_P8), (16, GOLDEN_P16)] {
        let (profile, report) = pinned_profile(p);
        assert!(
            (report.class_stats.iter()).any(|s| s.rep_scale_o != s.rep_scale_l),
            "P={p}: no class grew one component alone"
        );
        let (classing, estimates) = whole_pair_estimates(p, &pinned_config(), &report);
        let mut oracle = profile.clone();
        for i in 0..p {
            for j in 0..p {
                (oracle.cost.o[(i, j)], oracle.cost.l[(i, j)]) = estimates[classing.class_of(i, j)];
            }
        }
        assert_eq!(profile_fingerprint(&oracle), profile_fingerprint(&profile));
        assert_eq!(profile_fingerprint(&oracle), golden, "P={p}");
    }

    let machine = MachineSpec::dual_quad_cluster(2);
    let noise = NoiseModel::realistic(42);
    let cfg = exploded_config();
    let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_oracle_never_spills"));
    let mut local = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    let (model, report, _) = measure_profile_compressed(
        &machine,
        &RankMapping::Block,
        16,
        noise,
        &cfg,
        &spill,
        &mut local,
    )
    .unwrap();
    let (_, estimates) = whole_pair_estimates(16, &cfg, &report);
    let parts = model.to_parts();
    for (c, &(o, l)) in estimates.iter().enumerate() {
        assert_eq!(parts.table_o[c].to_bits(), o.to_bits(), "class {c}");
        assert_eq!(parts.table_l[c].to_bits(), l.to_bits(), "class {c}");
    }
    assert_eq!(model.fingerprint(), GOLDEN_EXPLODED_MODEL_P16);
}

/// The reusable engine (programs bound once per sample point, arenas
/// rewound between runs, packed-key event heap, flat matching pools,
/// in-place program rebuilds) measures, bit for bit, the profiles of the
/// engine it replaced (fresh engine per run, heap of event structs,
/// `VecDeque` pools, cloned programs) fed the same noise draws: the fast
/// schedule at P = 8 and 16, the paper's full schedule at P = 8.
#[test]
fn exhaustive_profile_is_bit_identical_to_pre_rework_engine() {
    for (schedule, p, cfg, golden) in [
        (
            "fast",
            8usize,
            ProfilingConfig::fast(),
            GOLDEN_ENGINE_FAST_P8,
        ),
        ("fast", 16, ProfilingConfig::fast(), GOLDEN_ENGINE_FAST_P16),
        ("full", 8, ProfilingConfig::default(), GOLDEN_ENGINE_FULL_P8),
    ] {
        let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
        let noise = NoiseModel::realistic(42);
        let exact = SweepConfig::exact(cfg);
        let (profile, _) = local_sweep(&machine, &RankMapping::RoundRobin, p, noise, &exact);
        assert_eq!(
            profile_fingerprint(&profile),
            golden,
            "{schedule} exhaustive profile at P={p} diverged from the pre-rework engine"
        );
    }
}

/// The plan of the pinned sweep at P = 8 and 16, and of the P = 16 sweep
/// with every class exploded, whose compressed profile also pins the
/// numbering of the appended classes (exploded pairs, then diagonals).
#[test]
fn measurement_plan_is_pinned() {
    let exploded = exploded_config();
    for (p, cfg, golden) in [
        (8usize, pinned_config(), GOLDEN_PLAN_P8),
        (16, pinned_config(), GOLDEN_PLAN_P16),
        (16, exploded.clone(), GOLDEN_PLAN_EXPLODED_P16),
    ] {
        let machine = MachineSpec::dual_quad_cluster(p.div_ceil(8));
        let noise = NoiseModel::realistic(42);
        let mut recording = Recording {
            inner: LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone()),
            plan: Fnv::new(),
        };
        let mapping = RankMapping::Block;
        measure_profile_decomposed(&machine, &mapping, p, noise, &cfg, &mut recording).unwrap();
        assert_eq!(recording.plan.0, golden, "plan at P={p} diverged");
    }

    let machine = MachineSpec::dual_quad_cluster(2);
    let noise = NoiseModel::realistic(42);
    let mut recording = Recording {
        inner: LocalExecutor::new(machine.clone(), noise, exploded.profiling.clone()),
        plan: Fnv::new(),
    };
    let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_plan_never_spills"));
    let (model, report, _) = measure_profile_compressed(
        &machine,
        &RankMapping::Block,
        16,
        noise,
        &exploded,
        &spill,
        &mut recording,
    )
    .unwrap();
    assert!(report.exploded_pair_classes > 0 && report.exploded_diag_classes > 0);
    assert_eq!(recording.plan.0, GOLDEN_PLAN_EXPLODED_P16);
    assert_eq!(model.fingerprint(), GOLDEN_EXPLODED_MODEL_P16);
}

/// First captured from the sweep as it stood before the pair and diagonal
/// classes became one class list; re-captured when growth rounds began to
/// measure only the component whose spread still misses the tolerance
/// (kinds 2 and 3 entered the plan), with the values they yield re-derived
/// by `growth_goldens_are_whole_pair_measurements` — the model included.
const GOLDEN_PLAN_P8: u64 = 16887183826498653688;
const GOLDEN_PLAN_P16: u64 = 14666105485735066321;
const GOLDEN_PLAN_EXPLODED_P16: u64 = 2559675339259488499;
const GOLDEN_EXPLODED_MODEL_P16: u64 = 6415592701087346676;

/// Golden fingerprints of the pinned profiles. First captured from the
/// sweep's original hand-rolled `rel_spreads`/`medians`; re-captured when
/// growth became per component, after
/// `growth_goldens_are_whole_pair_measurements` rebuilt both profiles bit
/// for bit from whole `Pair` descriptors at each class's final `O` and `L`
/// scales. Do not update these without such a demonstration that the new
/// value is what the new measurement plan measures.
const GOLDEN_P8: u64 = 249128496081371317;
const GOLDEN_P16: u64 = 12017117717857409829;

/// Captured at 267efdb, the last commit to carry the pre-rework engine
/// (a frozen copy in `hbar-bench`), by hashing its profiles on these
/// inputs after asserting the live engine's hash the same.
/// EXPERIMENTS.md records how to rerun it from history.
const GOLDEN_ENGINE_FAST_P8: u64 = 14639149511285633526;
const GOLDEN_ENGINE_FAST_P16: u64 = 12421229643955368876;
const GOLDEN_ENGINE_FULL_P8: u64 = 4112949929277677322;
