//! Golden fingerprints of what the exhaustive search and the tuning
//! pipeline emit.
//!
//! The search's rayon-parallel first-stage waves promise output
//! bit-identical at any thread count; its golden is pinned at whatever
//! thread count the process runs with, and CI re-runs this file under
//! `RAYON_NUM_THREADS=1`, so a parallel run and a sequential one are both
//! held to the same bits. The greedy tuner has no parallel path.
//!
//! The SSS and closure goldens pin the SSS clustering and the Eq. 3
//! closure to the output of the seed-era reference implementations those
//! kernels were rewritten from; the tune goldens pin the tuner to its
//! output under the full-local-schedule scorer.

use hbar_core::algorithms::Algorithm;
use hbar_core::clustering::{
    splitmix64, try_sss_clusters_with, SssScratch, SSS_DEFAULT_SPARSENESS,
};
use hbar_core::compose::{
    level_candidates, search_optimal_barrier, tune_hybrid_costs, tune_hybrid_costs_with,
    SearchConfig, TunedBarrier, TunerConfig,
};
use hbar_core::cost::{member_set_hash, CostEvaluator, ScoreKey};
use hbar_core::schedule::BarrierSchedule;
use hbar_matrix::{BoolMatrix, ClosureWorkspace, DenseMatrix, SparseBoolMatrix};
use hbar_topo::cost::{CostMatrices, SendMode};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::metric::DistanceMetric;
use hbar_topo::profile::TopologyProfile;

/// A synthetic hierarchical machine: `nodes × per_node` ranks, cheap
/// intra-node links, expensive inter-node links, and per-pair jitter so
/// no two profiles are alike. Values stay positive and symmetric enough
/// for the SSS metric.
fn hierarchical_costs(nodes: usize, per_node: usize, jitter: &[f64]) -> CostMatrices {
    let p = nodes * per_node;
    let jit = |i: usize, j: usize| jitter[(i * p + j) % jitter.len()];
    let o = DenseMatrix::from_fn(p, |i, j| {
        if i == j {
            0.4e-6
        } else if i / per_node == j / per_node {
            1.0e-6 * (1.0 + jit(i, j))
        } else {
            3.0e-6 * (1.0 + jit(i, j))
        }
    });
    let l = DenseMatrix::from_fn(p, |i, j| {
        if i == j {
            0.0
        } else if i / per_node == j / per_node {
            0.5e-6 * (1.0 + jit(j, i))
        } else {
            50.0e-6 * (1.0 + jit(j, i))
        }
    });
    CostMatrices { o, l }
}

/// FNV-1a over a stream of 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// An `n × n` matrix's set entries, row-major.
    fn eat_matrix(&mut self, n: usize, edges: impl Iterator<Item = (usize, usize)>) {
        self.eat(n as u64);
        for (i, j) in edges {
            self.eat(i as u64);
            self.eat(j as u64);
        }
    }
}

/// Everything a tune emits: stage matrices and send modes, the choice
/// list, and the predicted cost's bits.
fn tune_fingerprint(tuned: &TunedBarrier) -> u64 {
    let mut fp = Fingerprint::new();
    fp.eat(tuned.schedule.len() as u64);
    for stage in tuned.schedule.stages() {
        fp.eat(u64::from(stage.mode == SendMode::ReceiversAwaiting));
        fp.eat_matrix(stage.matrix.n(), stage.matrix.edges());
    }
    fp.eat(tuned.choices.len() as u64);
    for choice in &tuned.choices {
        fp.eat(choice.depth as u64);
        fp.eat(choice.participants.len() as u64);
        for &rank in &choice.participants {
            fp.eat(rank as u64);
        }
        for byte in format!("{:?}", choice.algorithm).bytes() {
            fp.eat(u64::from(byte));
        }
        fp.eat(choice.score.to_bits());
    }
    fp.eat(tuned.predicted_cost.to_bits());
    fp.0
}

/// Eq. 3 knowledge after every stage prefix of `stages`, folded into one
/// hash: a barrier's final closure is all ones at any size, the
/// intermediate closures are what tell two kernels apart.
fn closure_fingerprint(n: usize, stages: &[&SparseBoolMatrix]) -> u64 {
    let mut ws = ClosureWorkspace::new();
    let mut fp = Fingerprint::new();
    for upto in 1..=stages.len() {
        let k: &BoolMatrix = ws.closure(n, stages[..upto].iter().copied());
        fp.eat_matrix(n, k.edges());
    }
    fp.0
}

/// Dual quad-core nodes like cluster A without its 8-node cap, ranks
/// dealt round-robin, noise-free costs.
fn dual_quad_profile(p: usize) -> TopologyProfile {
    let machine = MachineSpec::new(p.div_ceil(8), 2, 4);
    TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p)
}

/// The paper's tuner (dissemination fixed at radix 2) emits, bit for bit,
/// what 79c2117's default tuner emitted on the same profiles with its
/// exact scoring on: every candidate priced by its full local schedule,
/// the only scorer since. The default tuner, which picks the
/// dissemination radix per level, is pinned beside it.
#[test]
fn tuner_output_matches_goldens() {
    let sizes = [16usize, 32, 64, 128, 256];
    for (cfg, goldens) in [
        (TunerConfig::paper(), GOLDEN_TUNE),
        (TunerConfig::default(), GOLDEN_TUNE_DEFAULT),
    ] {
        for (p, golden) in sizes.into_iter().zip(goldens) {
            let members: Vec<usize> = (0..p).collect();
            let tuned = tune_hybrid_costs(&dual_quad_profile(p).cost, &members, &cfg);
            assert_eq!(
                tune_fingerprint(&tuned),
                golden,
                "tune diverged at P={p} ({:?})",
                cfg.candidates
            );
        }
    }
}

/// Everything a search returns — schedule, cost bits, expansion count
/// and completeness — on eight seeded random 4-rank hierarchical
/// profiles, per expansion budget: one that truncates early, one that
/// truncates late, one that completes.
#[test]
fn search_output_matches_goldens() {
    let jitter = |seed: u64| -> Vec<f64> {
        (0..16)
            .map(|k| 0.5 * (splitmix64(seed * 16 + k) >> 11) as f64 / (1u64 << 53) as f64)
            .collect()
    };
    for (max_expansions, golden) in [
        (200usize, GOLDEN_SEARCH_200),
        (5_000, GOLDEN_SEARCH_5K),
        (200_000, GOLDEN_SEARCH_200K),
    ] {
        let mut fp = Fingerprint::new();
        for seed in 0..8u64 {
            let cost = hierarchical_costs(2, 2, &jitter(seed));
            let cfg = SearchConfig {
                max_expansions,
                max_stages: 4,
            };
            let r = search_optimal_barrier(&cost, &cfg, None).expect("dissemination fits");
            fp.eat(r.schedule.len() as u64);
            for stage in r.schedule.stages() {
                fp.eat_matrix(stage.matrix.n(), stage.matrix.edges());
            }
            fp.eat(r.cost.to_bits());
            fp.eat(r.expansions as u64);
            fp.eat(u64::from(r.complete));
        }
        assert_eq!(fp.0, golden, "search diverged at budget {max_expansions}");
    }
}

/// One tune leaves the caller's evaluator a score for every candidate of
/// every multi-member level — as `level_candidates` expands the
/// configured ones — except the dissemination radices its lower bound
/// skipped, each of which prices above the level's choice; a second tune
/// on the same costs scores nothing and emits the same bits.
#[test]
fn tune_fills_the_callers_memo_once() {
    let p = 1024;
    let cost = dual_quad_profile(p).cost;
    let members: Vec<usize> = (0..p).collect();
    let cfg = TunerConfig::default();
    let mut eval = CostEvaluator::new(cfg.cost_params);
    let first = tune_hybrid_costs_with(&cost, &members, &cfg, &mut eval);
    let (mut scored, mut skipped) = (0, 0);
    for choice in &first.choices {
        let m = choice.participants.len();
        for alg in (cfg.candidates.iter()).flat_map(|&c| level_candidates(c, m)) {
            let key = ScoreKey {
                members_hash: member_set_hash(&choice.participants),
                members_len: m,
                algorithm: alg,
                is_root: choice.depth == 0,
            };
            if eval.cached_score(&key).is_some() {
                scored += 1;
                continue;
            }
            skipped += 1;
            assert!(
                matches!(alg, Algorithm::Dissemination | Algorithm::NWay(_)),
                "{alg} went unscored"
            );
            let mut sched = BarrierSchedule::from_arrival_matrices(
                p,
                alg.arrival_embedded(p, &choice.participants),
            );
            if choice.depth > 0 {
                sched.append(sched.departure_reversed(0));
            }
            let price = CostEvaluator::new(cfg.cost_params).barrier_cost(&sched, &cost, None);
            assert!(
                price > choice.score,
                "skipped {alg} over {m} prices {price:e}, below the choice's {:e}",
                choice.score
            );
        }
    }
    assert!(skipped > 0, "the bound skipped nothing");
    assert_eq!(eval.cached_scores(), scored);
    let second = tune_hybrid_costs_with(&cost, &members, &cfg, &mut eval);
    assert_eq!(eval.cached_scores(), scored);
    assert_eq!(tune_fingerprint(&first), tune_fingerprint(&second));
}

/// SSS clustering (maintained nearest-center arrays) emits the cluster
/// lists of the seed-era `min_by` scan over recomputed distances.
#[test]
fn sss_clusters_match_seed_era_goldens() {
    let mut scratch = SssScratch::default();
    for (p, golden) in [
        (64usize, GOLDEN_SSS_P64),
        (256, GOLDEN_SSS_P256),
        (1024, GOLDEN_SSS_P1024),
    ] {
        let profile = dual_quad_profile(p);
        let metric = DistanceMetric::from_costs(&profile.cost);
        let members: Vec<usize> = (0..p).collect();
        let clusters = try_sss_clusters_with(
            &metric,
            &members,
            SSS_DEFAULT_SPARSENESS,
            metric.diameter(),
            &mut scratch,
        )
        .expect("ground-truth metric is finite");
        let mut fp = Fingerprint::new();
        fp.eat(clusters.len() as u64);
        for cluster in &clusters {
            fp.eat(cluster.len() as u64);
            for &rank in cluster {
                fp.eat(rank as u64);
            }
        }
        assert_eq!(fp.0, golden, "clusters diverged at P={p}");
    }
}

/// The scatter Eq. 3 closure at P = 1024 (16-word rows, per-row
/// saturation skipping) reproduces the seed-era allocating
/// `K ← K ∨ K·S` after every stage of the dissemination schedule
/// (knowledge saturates only at the last stage) and of the tuned
/// hybrid. Small sizes, dense senders and both verdicts are covered
/// against the definition in `hbar-matrix`'s property tests.
#[test]
fn closure_at_p1024_matches_seed_era_goldens() {
    let p = 1024;
    let dissemination: Vec<SparseBoolMatrix> = (0..10)
        .map(|s| SparseBoolMatrix::from_edges(p, (0..p).map(|i| (i, (i + (1 << s)) % p))))
        .collect();
    let stages: Vec<&SparseBoolMatrix> = dissemination.iter().collect();
    assert_eq!(
        closure_fingerprint(p, &stages),
        GOLDEN_CLOSURE_DISSEMINATION_P1024
    );

    let members: Vec<usize> = (0..p).collect();
    for (cfg, golden) in [
        (TunerConfig::paper(), GOLDEN_CLOSURE_HYBRID_P1024),
        (TunerConfig::default(), GOLDEN_CLOSURE_DEFAULT_HYBRID_P1024),
    ] {
        let tuned = tune_hybrid_costs(&dual_quad_profile(p).cost, &members, &cfg);
        let stages: Vec<&SparseBoolMatrix> =
            tuned.schedule.stages().iter().map(|s| &s.matrix).collect();
        assert_eq!(
            closure_fingerprint(p, &stages),
            golden,
            "{:?}",
            cfg.candidates
        );
    }
}

/// Captured from the search at 434e9b1 (before it priced stages through
/// the cost evaluator), identical at one and two rayon threads.
const GOLDEN_SEARCH_200: u64 = 16364250991363706745;
const GOLDEN_SEARCH_5K: u64 = 3477119198367369912;
const GOLDEN_SEARCH_200K: u64 = 12410305415377297393;

/// Captured at 79c2117 with the tuner's exact scoring on, the
/// full-local-schedule scorer that became the only one. Every choice
/// score is hashed, so all five moved off the paper-rule values; the
/// schedules moved only at P = 32, 64 and 128. Do not update a constant
/// without showing the new value comes from an output-preserving change.
const GOLDEN_TUNE_P16: u64 = 5040888203605845547;
const GOLDEN_TUNE_P32: u64 = 15872287411061263630;
const GOLDEN_TUNE_P64: u64 = 2692475093563128954;
const GOLDEN_TUNE_P128: u64 = 7812079309315916925;
const GOLDEN_TUNE_P256: u64 = 2166006921821327429;
const GOLDEN_TUNE: [u64; 5] = [
    GOLDEN_TUNE_P16,
    GOLDEN_TUNE_P32,
    GOLDEN_TUNE_P64,
    GOLDEN_TUNE_P128,
    GOLDEN_TUNE_P256,
];
/// The default tuner at P = 16 … 256, captured at the child of fb53651,
/// where it began to pick the dissemination radix per level. At P = 16
/// it tunes what the paper's tuner does.
const GOLDEN_TUNE_DEFAULT: [u64; 5] = [
    GOLDEN_TUNE_P16,
    62952996031982239,
    12190676710398591160,
    16653982330818358300,
    915195833036574027,
];
/// Captured at 267efdb, the last commit to carry the seed-era reference
/// implementations (frozen copies in `hbar-bench`), by hashing their
/// output on these inputs after asserting the live kernels hash the
/// same. EXPERIMENTS.md records how to rerun them from history. Do not
/// update a constant without showing the new value comes from an
/// output-preserving change.
const GOLDEN_SSS_P64: u64 = 12336842089683923917;
const GOLDEN_SSS_P256: u64 = 1357468335877294501;
const GOLDEN_SSS_P1024: u64 = 8351884011851871045;
const GOLDEN_CLOSURE_DISSEMINATION_P1024: u64 = 16290245114652746293;
const GOLDEN_CLOSURE_HYBRID_P1024: u64 = 7398636723096387337;
/// The default tuner's hybrid, captured with [`GOLDEN_TUNE_DEFAULT`].
const GOLDEN_CLOSURE_DEFAULT_HYBRID_P1024: u64 = 1403828625440670873;
