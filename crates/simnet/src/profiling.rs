//! The §IV-A pair benchmark: its schedule, its noise sub-seeds, and the
//! regression that turns one pair's measurements into `(O_ij, L_ij)`.
//!
//! "Benchmarking to find these values proceeds by a sequence of
//! |P|(|P|−1)/2 pairwise round-trip tests to establish O_ij, L_ij | i ≠ j,
//! and another |P| tests for O_ii."
//!
//! Each pair is measured in its own two-rank world pinned to the pair's
//! cores (the simulator's equivalent of `sched_setaffinity`), with a
//! per-pair noise sub-seed so interference is independent across pairs.
//! The sweep over pairs is [`crate::sweep`]'s: the paper's exhaustive
//! sweep is [`crate::sweep::SweepConfig::exact`] — every pair its own
//! class, measured once under its own sub-seed — through the same
//! [`crate::sweep::measure_profile_decomposed`] (or
//! [`crate::scatter::measure_profile_compressed`]) that runs the
//! clustered one. Pairs are independent experiments, so any executor may
//! run them in any order.

use crate::benchprog::PairBench;
use crate::noise::NoiseModel;
use crate::world::{SimConfig, SimWorld};
use hbar_core::clustering::splitmix64;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::regress::{hockney_intercept, hockney_message_sizes, latency_gradient};
use serde::{Deserialize, Serialize};

/// Benchmark schedule parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfilingConfig {
    /// Ping-pong payload sizes for the `O_ij` regression.
    pub sizes: Vec<usize>,
    /// Independent runs per ping-pong sample point, summarized by their
    /// median (paper: 25).
    pub reps: usize,
    /// Largest simultaneous-message count for the `L_ij` regression
    /// (paper: 32).
    pub max_messages: usize,
    /// Independent runs per burst sample point, summarized by their
    /// median (paper: 25).
    pub burst_reps: usize,
    /// Transmission-free calls averaged for `O_ii` (paper: |P|).
    pub noop_calls: usize,
    /// Measure each unordered pair once and mirror it (the paper's
    /// symmetric-link assumption); `false` measures both directions,
    /// supporting the asymmetric extension the paper calls trivial.
    pub symmetric: bool,
}

impl Default for ProfilingConfig {
    fn default() -> Self {
        ProfilingConfig {
            sizes: hockney_message_sizes(),
            reps: 25,
            max_messages: 32,
            burst_reps: 25,
            noop_calls: 32,
            symmetric: true,
        }
    }
}

impl ProfilingConfig {
    /// A reduced schedule for unit tests and quick runs: fewer sizes,
    /// fewer repetitions, shorter bursts. Estimates are noisier but the
    /// pipeline is identical.
    pub fn fast() -> Self {
        ProfilingConfig {
            sizes: vec![1, 64, 1 << 10, 1 << 14, 1 << 17],
            reps: 4,
            max_messages: 8,
            burst_reps: 3,
            noop_calls: 8,
            symmetric: true,
        }
    }
}

/// The noise sub-seed of pair `(i, j)`'s benchmark world: a SplitMix64
/// mix of the pair identity into the base seed.
///
/// The previous scheme — `seed + (i * p + j) * odd_constant` — handed
/// adjacent pairs consecutive multiples of one constant, so their
/// `SmallRng` streams started from low-entropy, correlated states, and it
/// depended on `p`, so the same physical pair got different noise under
/// different sweep sizes and the asymmetric direction `(j, i)` could
/// collide with an unrelated pair's representative at large `P`
/// (`i * p + j` wraps). Mixing each coordinate through the SplitMix64
/// finalizer gives every ordered pair an avalanche-decorrelated,
/// `p`-independent stream.
pub fn pair_sub_seed(i: usize, j: usize, seed: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ 0x9E37_79B9_7F4A_7C15) ^ i as u64) ^ j as u64)
}

/// The noise sub-seed of rank `i`'s diagonal (`O_ii`) benchmark world,
/// domain-separated from every pair sub-seed.
pub fn diag_sub_seed(i: usize, seed: u64) -> u64 {
    splitmix64(splitmix64(seed ^ 0x000D_D1A6_u64) ^ i as u64)
}

/// Runs one pair's full §IV-A measurement schedule — the ping-pong size
/// sweep then the burst-count sweep, in a fixed order — and regresses
/// out `(O_ij, L_ij)`. The leaf of every pair descriptor
/// ([`crate::sweep::execute_descriptor`]), amortizing one engine and one
/// pair of program buffers across every sample point.
pub(crate) fn measure_pair(bench: &mut PairBench, cfg: &ProfilingConfig) -> (f64, f64) {
    let o_points: Vec<(f64, f64)> = cfg
        .sizes
        .iter()
        .map(|&s| (s as f64, bench.one_way(s, cfg.reps)))
        .collect();
    let l_points: Vec<(f64, f64)> = (1..=cfg.max_messages)
        .map(|k| (k as f64, bench.burst(k, cfg.burst_reps)))
        .collect();
    (hockney_intercept(&o_points), latency_gradient(&l_points))
}

/// Builds an amortized two-rank benchmark scratch with local rank 0 on
/// `core_a` and local rank 1 on `core_b`, drawing noise from `sub_seed`
/// (already mixed — see [`pair_sub_seed`]/[`diag_sub_seed`]).
pub(crate) fn pair_bench(
    machine: &MachineSpec,
    core_a: usize,
    core_b: usize,
    noise: NoiseModel,
    sub_seed: u64,
) -> PairBench {
    let per_pair_noise = NoiseModel {
        seed: sub_seed,
        ..noise
    };
    let cfg = SimConfig {
        machine: machine.clone(),
        mapping: RankMapping::Custom(vec![core_a, core_b]),
        noise: per_pair_noise,
    };
    PairBench::new(SimWorld::new(cfg, 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{measure_profile_decomposed, LocalExecutor, SweepConfig};
    use hbar_topo::machine::LinkClass;
    use hbar_topo::profile::TopologyProfile;

    /// The exhaustive §IV-A profile: the exact sweep, executed locally.
    fn exact_profile(
        machine: &MachineSpec,
        mapping: &RankMapping,
        p: usize,
        noise: NoiseModel,
        cfg: &ProfilingConfig,
    ) -> TopologyProfile {
        let mut local = LocalExecutor::new(machine.clone(), noise, cfg.clone());
        let exact = SweepConfig::exact(cfg.clone());
        (measure_profile_decomposed(machine, mapping, p, noise, &exact, &mut local).unwrap()).0
    }

    /// Relative error of every off-diagonal profile entry against the
    /// ideal ground-truth profile.
    fn worst_error(measured: &TopologyProfile, ideal: &TopologyProfile) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..measured.p {
            for j in 0..measured.p {
                if i == j {
                    continue;
                }
                let (a, b) = (measured.cost.o[(i, j)], ideal.cost.o[(i, j)]);
                worst = worst.max((a - b).abs() / b);
                let (a, b) = (measured.cost.l[(i, j)], ideal.cost.l[(i, j)]);
                worst = worst.max((a - b).abs() / b);
            }
        }
        worst
    }

    #[test]
    fn noise_free_profile_matches_ground_truth_closely() {
        let machine = MachineSpec::new(2, 2, 2);
        let mapping = RankMapping::Block;
        let measured = exact_profile(
            &machine,
            &mapping,
            8,
            NoiseModel::none(),
            &ProfilingConfig::fast(),
        );
        let ideal = TopologyProfile::from_ground_truth(&machine, &mapping);
        let err = worst_error(&measured, &ideal);
        assert!(err < 0.12, "worst relative error {err}");
    }

    #[test]
    fn profile_reflects_hierarchy_ordering() {
        let machine = MachineSpec::new(2, 2, 2);
        let measured = exact_profile(
            &machine,
            &RankMapping::Block,
            8,
            NoiseModel::none(),
            &ProfilingConfig::fast(),
        );
        // same socket (0,1) < cross socket (0,4) < inter node (0,4+4).
        let o = &measured.cost.o;
        assert!(o[(0, 1)] < o[(0, 2)] || o[(0, 1)] < o[(0, 4)]);
        assert!(o[(0, 1)] < o[(0, 4)]);
        assert!(o[(0, 4)] < o[(0, 5)].max(o[(0, 6)]).max(o[(0, 7)]) * 100.0);
        // Inter-node pairs clearly dominate.
        let inter = o[(0, 4)];
        let local_max = o[(0, 1)].max(o[(0, 2)]).max(o[(0, 3)]);
        assert!(
            inter > 5.0 * local_max,
            "inter {inter} vs local {local_max}"
        );
    }

    #[test]
    fn noisy_profile_remains_usable() {
        let machine = MachineSpec::new(2, 1, 2);
        let mapping = RankMapping::Block;
        let measured = exact_profile(
            &machine,
            &mapping,
            4,
            NoiseModel::realistic(17),
            &ProfilingConfig::fast(),
        );
        let ideal = TopologyProfile::from_ground_truth(&machine, &mapping);
        let err = worst_error(&measured, &ideal);
        // Noise perturbs estimates but the profile stays in the right
        // ballpark — the reproducibility §IV-B claims.
        assert!(err < 0.6, "worst relative error {err}");
        // And the hierarchy ordering survives.
        assert!(measured.cost.o[(0, 1)] < measured.cost.o[(0, 2)]);
    }

    #[test]
    fn symmetric_profile_is_symmetric() {
        let machine = MachineSpec::new(2, 1, 2);
        let measured = exact_profile(
            &machine,
            &RankMapping::Block,
            4,
            NoiseModel::realistic(3),
            &ProfilingConfig::fast(),
        );
        assert!(measured.cost.o.is_symmetric());
        assert!(measured.cost.l.is_symmetric());
    }

    #[test]
    fn asymmetric_mode_measures_both_directions() {
        let machine = MachineSpec::new(2, 1, 2);
        let cfg = ProfilingConfig {
            symmetric: false,
            ..ProfilingConfig::fast()
        };
        let measured = exact_profile(
            &machine,
            &RankMapping::Block,
            4,
            NoiseModel::realistic(3),
            &cfg,
        );
        // With independent noisy measurements per direction, exact
        // symmetry is (almost surely) broken but values stay close.
        assert!(!measured.cost.o.is_symmetric());
        assert!(measured.cost.o.asymmetry() < 0.5);
    }

    #[test]
    fn sub_seeds_decorrelate_and_never_collide() {
        // p-independent by construction (no `p` argument), directed pairs
        // and diagonals all land on distinct seeds — the property the old
        // `(i * p + j)` salt violated at large P.
        let mut seen = std::collections::HashSet::new();
        for i in 0..128usize {
            for j in 0..128usize {
                if i != j {
                    assert!(seen.insert(pair_sub_seed(i, j, 42)), "collision ({i},{j})");
                }
            }
            assert!(seen.insert(diag_sub_seed(i, 42)), "diag collision {i}");
        }
        // And adjacent pairs differ in roughly half their bits rather than
        // by one multiple of a constant.
        let d = (pair_sub_seed(0, 1, 42) ^ pair_sub_seed(0, 2, 42)).count_ones();
        assert!((16..=48).contains(&d), "adjacent seeds too correlated: {d}");
    }

    #[test]
    fn diagonal_holds_call_overhead_estimate() {
        let machine = MachineSpec::new(1, 1, 2);
        let measured = exact_profile(
            &machine,
            &RankMapping::Block,
            2,
            NoiseModel::none(),
            &ProfilingConfig::fast(),
        );
        let expect = machine.ground_truth.effective_oii();
        for i in 0..2 {
            assert!((measured.cost.o[(i, i)] - expect).abs() / expect < 0.01);
            assert_eq!(measured.cost.l[(i, i)], 0.0);
        }
        // The noise-free L for a same-socket pair matches Fig. 9 scale.
        let l01 = measured.cost.l[(0, 1)];
        let expect_l = machine.ground_truth.effective_l(LinkClass::SameSocket);
        assert!(
            (l01 - expect_l).abs() / expect_l < 0.15,
            "{l01} vs {expect_l}"
        );
    }
}
