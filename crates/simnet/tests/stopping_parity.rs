//! Pins the decomposed sweep's adaptive-repetition behavior to golden
//! hashes captured from the sweep's original hand-rolled stopping
//! arithmetic. The configuration deliberately drives every layer of
//! the repetition logic — multi-member classes, validation probes, a
//! tolerance tight enough to force growth rounds, and the explosion
//! safety valve disabled — so any drift in the rule's arithmetic
//! (median, relative spread, grow/stop decision) changes the scattered
//! matrices and flips the hash.
//!
//! Also pins the exhaustive sweep (`SweepConfig::exact`) — and through
//! it the simulation engine, the pair benchmarks and the noise stream —
//! to the profiles of the pre-rework engine.
//!
//! And pins the measurement plan itself: the batches the sweep hands its
//! executor, in order, descriptor for descriptor. A fleet's workers see
//! that order, so a sweep that reorders or rebatches its work fails here
//! even when every value it scatters is unchanged.

use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::sweep::{measure_profile_decomposed, LocalExecutor, SweepConfig, SweepReport};
use hbar_simnet::{
    measure_profile_compressed, DescriptorExecutor, NoiseModel, PairSample, PairWorkDescriptor,
    SpillConfig, SweepError, WorkKind,
};
use hbar_topo::cost::CostProvider;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;

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
        "clustered profile at P=8 diverged from the pre-refactor stopping rule"
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
        "clustered profile at P=16 diverged from the pre-refactor stopping rule"
    );
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
    let exploded = SweepConfig {
        explode_rel_tol: 0.0,
        ..pinned_config()
    };
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

/// Captured from the sweep as it stood before the pair and diagonal
/// classes became one class list.
const GOLDEN_PLAN_P8: u64 = 9555430023848840514;
const GOLDEN_PLAN_P16: u64 = 11248531008883748625;
const GOLDEN_PLAN_EXPLODED_P16: u64 = 13853862296001480243;
const GOLDEN_EXPLODED_MODEL_P16: u64 = 6313327164405623437;

/// Golden fingerprints captured from the pre-refactor sweep (the
/// hand-rolled `rel_spreads`/`medians` in `sweep.rs` as of PR 7) under
/// the pinned seeds above. Do not update these without demonstrating the
/// new value reproduces the old measurement plan measurement-for-
/// measurement.
const GOLDEN_P8: u64 = 7051013349102083021;
const GOLDEN_P16: u64 = 15183762971726166949;

/// Captured at 267efdb, the last commit to carry the pre-rework engine
/// (a frozen copy in `hbar-bench`), by hashing its profiles on these
/// inputs after asserting the live engine's hash the same.
/// EXPERIMENTS.md records how to rerun it from history.
const GOLDEN_ENGINE_FAST_P8: u64 = 14639149511285633526;
const GOLDEN_ENGINE_FAST_P16: u64 = 12421229643955368876;
const GOLDEN_ENGINE_FULL_P8: u64 = 4112949929277677322;
