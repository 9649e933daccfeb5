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

use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::sweep::{measure_profile_decomposed, LocalExecutor, SweepConfig, SweepReport};
use hbar_simnet::NoiseModel;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;

/// FNV-1a over the bit patterns of both cost matrices, row-major O then L.
fn profile_fingerprint(p: &TopologyProfile) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: f64| {
        for byte in x.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in p.cost.o.as_slice() {
        eat(*v);
    }
    for v in p.cost.l.as_slice() {
        eat(*v);
    }
    hash
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
