//! Integration tests of the profiling sweep: singleton-regime bit-parity
//! with a hand-measured exhaustive oracle, and clustered-vs-exhaustive
//! error bounds on the paper clusters.

use hbar_core::clustering::splitmix64;
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_core::verify::is_barrier;
use hbar_simnet::profiling::{diag_sub_seed, pair_sub_seed, ProfilingConfig};
use hbar_simnet::sweep::{
    execute_descriptor, measure_profile_decomposed, LocalExecutor, PairWorkDescriptor, SweepConfig,
    SweepReport, WorkKind,
};
use hbar_simnet::{measure_profile_compressed, NoiseModel, SpillConfig, SpillReport};
use hbar_topo::compressed::CompressedCostModel;
use hbar_topo::cost::{CostMatrices, CostProvider};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::metric::DistanceMetric;
use hbar_topo::profile::TopologyProfile;
use proptest::prelude::*;

/// Bit-level equality of two profiles' cost matrices.
fn bits_equal(a: &TopologyProfile, b: &TopologyProfile) -> bool {
    costs_bits_equal(&a.cost, &b.cost)
}

fn costs_bits_equal(a: &CostMatrices, b: &CostMatrices) -> bool {
    let bits = |m: &CostMatrices| -> Vec<u64> {
        let values = m.o.as_slice().iter().chain(m.l.as_slice());
        values.map(|v| v.to_bits()).collect()
    };
    bits(a) == bits(b)
}

/// The exhaustive §IV-A profile measured by hand — the reference the
/// sweep is held to, sharing nothing with it but the leaf: every pair
/// (both orientations unless `cfg.symmetric`) and every diagonal through
/// the public [`execute_descriptor`] at `rep_scale` 1 under its own
/// [`pair_sub_seed`] / [`diag_sub_seed`], scattered into fresh matrices.
fn exhaustive_oracle(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &ProfilingConfig,
) -> TopologyProfile {
    let cores = mapping.place(machine, p);
    let measure = |kind, i: usize, j: usize, sub_seed| {
        let d = PairWorkDescriptor {
            id: 0,
            kind,
            i: i as u32,
            j: j as u32,
            core_a: cores[i] as u32,
            core_b: cores[j] as u32,
            sub_seed,
            rep_scale: 1,
        };
        execute_descriptor(machine, noise, cfg, &d)
    };
    let mut cost = CostMatrices::zeros(p);
    for i in 0..p {
        for j in (0..p).filter(|&j| j != i && !(cfg.symmetric && j < i)) {
            let s = measure(WorkKind::Pair, i, j, pair_sub_seed(i, j, noise.seed));
            (cost.o[(i, j)], cost.l[(i, j)]) = (s.o, s.l);
            if cfg.symmetric {
                (cost.o[(j, i)], cost.l[(j, i)]) = (s.o, s.l);
            }
        }
        let diag = measure(WorkKind::Diag, i, (i + 1) % p, diag_sub_seed(i, noise.seed));
        cost.o[(i, i)] = diag.o;
    }
    TopologyProfile {
        machine: machine.clone(),
        mapping: mapping.clone(),
        p,
        cost,
    }
}

/// The dense sweep under `cfg`, executed on the local thread pool.
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

/// The compressed sweep under `cfg`, executed on the local thread pool.
fn local_compressed(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
    spill: &SpillConfig,
) -> (CompressedCostModel, SweepReport, SpillReport) {
    let mut local = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    measure_profile_compressed(machine, mapping, p, noise, cfg, spill, &mut local).unwrap()
}

/// Worst relative off-diagonal error of `a` against reference `b`.
fn worst_rel_error(a: &TopologyProfile, b: &TopologyProfile) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..a.p {
        for j in 0..a.p {
            if i == j {
                continue;
            }
            let (x, y) = (a.cost.o[(i, j)], b.cost.o[(i, j)]);
            worst = worst.max((x - y).abs() / y);
            let (x, y) = (a.cost.l[(i, j)], b.cost.l[(i, j)]);
            worst = worst.max((x - y).abs() / y);
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Singleton-class property: when every pair is its own class, the
    /// sweep IS the exhaustive sweep — bit for bit against the oracle, for
    /// any machine shape, mapping, noise seed and sweep orientation.
    #[test]
    fn singleton_regime_is_bit_identical_to_exhaustive(
        (nodes, sockets, cores) in (1usize..=2, 1usize..=2, 1usize..=3),
        p in 2usize..=8,
        seed in 0u64..1000,
        round_robin in any::<bool>(),
        symmetric in any::<bool>(),
    ) {
        let machine = MachineSpec::new(nodes, sockets, cores);
        prop_assume!(p <= machine.total_cores());
        let mapping = if round_robin { RankMapping::RoundRobin } else { RankMapping::Block };
        let noise = NoiseModel::realistic(seed);
        let cfg = ProfilingConfig { symmetric, ..ProfilingConfig::fast() };
        let exhaustive = exhaustive_oracle(&machine, &mapping, p, noise, &cfg);
        let (exact, report) = local_sweep(&machine, &mapping, p, noise, &SweepConfig::exact(cfg));
        prop_assert!(bits_equal(&exhaustive, &exact));
        let pairs = if symmetric { p * (p - 1) / 2 } else { p * (p - 1) };
        prop_assert_eq!(report.measurements, pairs + p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With a negative explosion tolerance every class explodes (zero
    /// scatter exceeds it too — at a tolerance of 0 two equal probes would
    /// keep a class whole), so each member is measured on its own and the
    /// clustered sweep must put the exhaustive sweep's value into every
    /// cell — which it can only do if the explosion enumeration and both
    /// scatters find, for every pair, the class the classing put it in.
    /// With explosion off every cell reads its class's estimate instead,
    /// through the compressed model's kind table where the exploded sweep
    /// reads overrides. Checked through the dense scatter, the in-memory
    /// tiles and the all-spilled tiles, over machine shapes, placements (a
    /// rank count that is no multiple of the node size included), both
    /// sweep orientations and probe counts; and whatever the compressed
    /// model answers without its dense image must be what the image says.
    #[test]
    fn exploded_sweep_equals_exhaustive_through_every_scatter(
        (nodes, sockets, cores) in (1usize..=3, 1usize..=2, 1usize..=3),
        short in 0usize..3,
        placement in 0usize..3,
        symmetric in any::<bool>(),
        explode in any::<bool>(),
        probes in 0usize..3,
        seed in 0u64..1000,
    ) {
        let machine = MachineSpec::new(nodes, sockets, cores);
        let p = machine.total_cores().saturating_sub(short);
        prop_assume!(p >= 2);
        let mapping = match placement {
            0 => RankMapping::Block,
            1 => RankMapping::RoundRobin,
            _ => {
                let mut order: Vec<usize> = (0..machine.total_cores()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, (splitmix64(seed ^ i as u64) % (i as u64 + 1)) as usize);
                }
                RankMapping::Custom(order)
            }
        };
        let noise = NoiseModel::realistic(seed);
        let profiling = ProfilingConfig { symmetric, ..ProfilingConfig::fast() };
        let cfg = SweepConfig {
            profiling: profiling.clone(),
            probes_per_class: [0, 1, 4][probes],
            explode_rel_tol: if explode { -1.0 } else { f64::INFINITY },
            ..SweepConfig::fast()
        };
        let (dense, dense_report) = local_sweep(&machine, &mapping, p, noise, &cfg);
        if explode {
            let exhaustive = exhaustive_oracle(&machine, &mapping, p, noise, &profiling);
            prop_assert!(bits_equal(&exhaustive, &dense));
        }

        let dir = std::env::temp_dir().join(format!(
            "hbar_sweep_parity_{}_{nodes}{sockets}{cores}{short}{placement}_{seed}",
            std::process::id()
        ));
        let staged = SpillConfig { tile_rows: 3, ..SpillConfig::in_memory(&dir) };
        let (in_memory, report, _) =
            local_compressed(&machine, &mapping, p, noise, &cfg, &staged);
        prop_assert_eq!(report.measurements, dense_report.measurements);
        let image = in_memory.to_dense();
        prop_assert!(costs_bits_equal(&image, &dense.cost));
        prop_assert_eq!(in_memory.class_map().overrides().is_empty(), !explode);
        if symmetric {
            prop_assert!(in_memory.is_symmetric());
            let (metric, by_cells) = (in_memory.distance_metric(), DistanceMetric::from_costs(&image));
            let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            let everyone: Vec<usize> = (0..p).collect();
            let (mut by_class, mut by_cell) = (Vec::new(), Vec::new());
            for i in 0..p {
                metric.distances_from(i, &everyone, &mut by_class);
                by_cells.distances_from(i, &everyone, &mut by_cell);
                prop_assert_eq!(bits(&by_class), bits(&by_cell));
                for j in 0..p {
                    prop_assert_eq!(metric.dist(i, j).to_bits(), by_cells.dist(i, j).to_bits());
                }
            }
            prop_assert_eq!(metric.diameter().to_bits(), by_cells.diameter().to_bits());
            prop_assert_eq!(
                metric.diameter_of(&everyone).to_bits(),
                by_cells.diameter_of(&everyone).to_bits()
            );
            prop_assert_eq!(
                metric.diameter_of(&everyone[p / 3..]).to_bits(),
                by_cells.diameter_of(&everyone[p / 3..]).to_bits()
            );
        }

        // Tiles are kind rows: with no budget at all each goes to disk.
        let all_spilled = SpillConfig { mem_budget_bytes: 0, ..staged };
        let (spilled, _, spill_report) =
            local_compressed(&machine, &mapping, p, noise, &cfg, &all_spilled);
        let kinds = in_memory.class_map().kinds();
        prop_assert!(kinds <= p);
        prop_assert_eq!(spill_report.spilled_tiles, kinds.div_ceil(3));
        prop_assert_eq!(spill_report.spill_bytes, (2 * kinds * kinds) as u64);
        prop_assert_eq!(&spilled, &in_memory);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Clustered estimates stay within the recorded error bound of the
/// exhaustive sweep on both paper clusters at P ∈ {16, 32, 64}, in two
/// noise regimes, and on the §IV-B shortcut's own terms.
///
/// * Under `realistic` noise the bound is 20%: the `fast()` schedule's
///   few repetitions leave substantial residual noise in *both* sweeps
///   (the worst observed gap, ~15% on dual_hex at P = 32, is noise floor,
///   not clustering bias — both estimates of the same pair wobble that
///   much).
/// * Under `quiet` noise — the pinned, dedicated-node regime profiling
///   methodology prescribes — per-pair intercepts are tight enough for
///   the entrywise gap to measure clustering bias, and it is held to 5%.
/// * §IV-B's "replicate component submatrices" shortcut taken literally
///   — one measurement per class, no validation probes, no noise —
///   loses under 5% against measuring every pair, and on a single-socket
///   machine (one link class) gives equal links equal entries.
///
/// Every clustered profile must also measure fewer pairs than the
/// exhaustive sweep and still tune to a barrier.
#[test]
fn clustered_error_bounded_on_paper_clusters() {
    let check = |name: &str,
                 machine: &MachineSpec,
                 mapping: &RankMapping,
                 p: usize,
                 noise: NoiseModel,
                 cfg: &SweepConfig,
                 bound: f64| {
        let name = format!("{name} P={p} jitter={}", noise.jitter_sigma);
        let exhaustive = exhaustive_oracle(machine, mapping, p, noise, &cfg.profiling);
        let (clustered, report) = local_sweep(machine, mapping, p, noise, cfg);
        let err = worst_rel_error(&clustered, &exhaustive);
        assert!(err < bound, "{name}: clustered error {err} out of bound");
        assert!(
            report.measurements < report.total_pairs + p,
            "{name}: no reduction ({} measurements)",
            report.measurements
        );
        if machine.nodes * machine.sockets == 1 {
            for (i, j) in (0..p).flat_map(|i| (0..p).map(move |j| (i, j))) {
                if i != j {
                    assert_eq!(clustered.cost.o[(i, j)], clustered.cost.o[(0, 1)]);
                    assert_eq!(clustered.cost.l[(i, j)], clustered.cost.l[(0, 1)]);
                }
            }
        }
        let members: Vec<usize> = (0..p).collect();
        let tuned = tune_hybrid_costs(&clustered.cost, &members, &TunerConfig::default());
        assert!(is_barrier(&tuned.schedule), "{name}: not a barrier");
    };

    for (noise, bound) in [
        (NoiseModel::realistic(2026), 0.2),
        (NoiseModel::quiet(42), 0.05),
    ] {
        for (name, machine) in [
            ("dual_quad", MachineSpec::dual_quad_cluster(8)),
            ("dual_hex", MachineSpec::dual_hex_cluster(6)),
        ] {
            for p in [16usize, 32, 64] {
                let cfg = SweepConfig::fast();
                check(name, &machine, &RankMapping::Block, p, noise, &cfg, bound);
            }
        }
    }

    let unprobed = SweepConfig {
        probes_per_class: 0,
        ..SweepConfig::fast()
    };
    let (rr, block) = (RankMapping::RoundRobin, RankMapping::Block);
    for (name, machine, mapping, p) in [
        ("2x2x2", MachineSpec::new(2, 2, 2), &rr, 8),
        ("1x1x4", MachineSpec::new(1, 1, 4), &block, 4),
    ] {
        let none = NoiseModel::none();
        check(name, &machine, mapping, p, none, &unprobed, 0.05);
    }
}
