//! Property-based tests over the core data structures and invariants.

use hbarrier::core::algorithms::Algorithm;
use hbarrier::core::clustering::{try_build_cluster_tree, ClusterError, SSS_DEFAULT_SPARSENESS};
use hbarrier::core::codegen::compile_schedule;
use hbarrier::core::schedule::{BarrierSchedule, Stage};
use hbarrier::core::verify;
use hbarrier::matrix::{knowledge_closure, BoolMatrix, DenseMatrix, SparseBoolMatrix};
use hbarrier::prelude::*;
use hbarrier::topo::cost::CostMatrices;
use hbarrier::topo::metric::DistanceMetric;
use proptest::prelude::*;

/// Random machine shapes within the paper's scale.
fn arb_machine() -> impl Strategy<Value = MachineSpec> {
    (1usize..=4, 1usize..=2, 1usize..=6)
        .prop_map(|(nodes, sockets, cores)| MachineSpec::new(nodes, sockets, cores))
}

/// Random edge lists over n ranks without self-loops.
fn arb_stage(n: usize) -> impl Strategy<Value = SparseBoolMatrix> {
    prop::collection::vec((0..n, 0..n), 0..n * 2).prop_map(move |edges| {
        SparseBoolMatrix::from_edges(n, edges.into_iter().filter(|(i, j)| i != j))
    })
}

/// A random cost profile: positive, symmetric O/L with O_ii small.
fn arb_costs(n: usize) -> impl Strategy<Value = CostMatrices> {
    prop::collection::vec(1.0f64..100.0, n * n).prop_map(move |vals| {
        let mut o = DenseMatrix::from_vec(n, vals.clone());
        let mut l = DenseMatrix::from_fn(n, |i, j| vals[(i * 31 + j * 7) % vals.len()] / 10.0);
        o.symmetrize();
        l.symmetrize();
        for i in 0..n {
            o[(i, i)] = 0.1;
            l[(i, i)] = 0.0;
        }
        CostMatrices { o, l }
    })
}

/// The frozen arithmetic of the materializing `DistanceMetric::from_costs`
/// the view replaced: every `(O_ij + O_ji) / 2` written out, zero diagonal.
fn oracle_distances(o: &DenseMatrix<f64>) -> DenseMatrix<f64> {
    let mut d = DenseMatrix::new(o.n());
    for i in 0..o.n() {
        for j in i + 1..o.n() {
            let v = (o[(i, j)] + o[(j, i)]) / 2.0;
            d[(i, j)] = v;
            d[(j, i)] = v;
        }
    }
    d
}

/// Rank counts for the view-parity property: the small primes, and sizes
/// on both sides of the diameter pass's 4-pair and 64-rank steps.
const VIEW_PARITY_RANKS: [usize; 12] = [1, 2, 3, 5, 7, 13, 4, 9, 16, 31, 47, 48];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The metric view over a dense `O` — asymmetric or not, NaN and
    /// infinite cells or not — answers bit for bit what the materialized
    /// matrix holds, for any member list, and clusters to the same tree or
    /// the same typed error.
    #[test]
    fn dense_view_matches_the_materialized_metric(
        size in 0usize..VIEW_PARITY_RANKS.len(),
        cells in prop::collection::vec(1.0f64..100.0, 48 * 48),
        symmetric in any::<bool>(),
        bad in prop::collection::vec((0usize..48 * 48, 0usize..3), 0..5),
        picks in prop::collection::vec(0usize..48, 1..64),
    ) {
        let p = VIEW_PARITY_RANKS[size];
        let mut o = DenseMatrix::from_vec(p, cells[..p * p].to_vec());
        if symmetric {
            o.symmetrize();
        }
        for &(cell, kind) in &bad {
            let (i, j) = (cell / 48 % p, cell % p);
            o[(i, j)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        }
        let cost = CostMatrices { o, l: DenseMatrix::new(p) };
        let oracle = oracle_distances(&cost.o);
        let view = DistanceMetric::from_costs(&cost);
        let materialized = DistanceMetric::from_matrix(oracle.clone());

        // Unsorted, non-consecutive, possibly a single rank.
        let mut members: Vec<usize> = Vec::new();
        for rank in picks.iter().map(|k| k % p) {
            if !members.contains(&rank) {
                members.push(rank);
            }
        }
        let everyone: Vec<usize> = (0..p).collect();
        let mut distances = Vec::new();
        for members in [&members, &everyone] {
            for i in 0..p {
                view.distances_from(i, members, &mut distances);
                prop_assert_eq!(distances.len(), members.len());
                for (&j, d) in members.iter().zip(&distances) {
                    prop_assert_eq!(d.to_bits(), oracle[(i, j)].to_bits(), "d({}, {})", i, j);
                    prop_assert_eq!(view.dist(i, j).to_bits(), oracle[(i, j)].to_bits());
                }
            }
            let mut diameter = 0.0f64;
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    diameter = diameter.max(oracle[(i, j)]);
                }
            }
            prop_assert_eq!(view.diameter_of(members).to_bits(), diameter.to_bits());

            let by_view = try_build_cluster_tree(&view, members, SSS_DEFAULT_SPARSENESS, 8);
            let by_matrix =
                try_build_cluster_tree(&materialized, members, SSS_DEFAULT_SPARSENESS, 8);
            match (by_view, by_matrix) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (
                    Err(ClusterError::NonFiniteDistance { from, to, .. }),
                    Err(ClusterError::NonFiniteDistance { from: f, to: t, .. }),
                ) => prop_assert_eq!((from, to), (f, t)),
                (a, b) => panic!("view {a:?}, materialized {b:?}"),
            }
        }
    }

    /// Transposition is an involution and preserves signal counts.
    #[test]
    fn transpose_involution(n in 1usize..40, edges in prop::collection::vec((0usize..40, 0usize..40), 0..80)) {
        let edges: Vec<(usize, usize)> = edges.into_iter()
            .filter(|(i, j)| *i < n && *j < n && i != j).collect();
        let m = BoolMatrix::from_edges(n, &edges);
        prop_assert_eq!(&m.transpose().transpose(), &m);
        prop_assert_eq!(m.transpose().popcount(), m.popcount());
    }

    /// The boolean product never loses knowledge: K ⊆ K + K·S.
    #[test]
    fn knowledge_closure_is_monotone(n in 1usize..20, stages in prop::collection::vec(prop::collection::vec((0usize..20, 0usize..20), 0..30), 0..6)) {
        let stages: Vec<BoolMatrix> = stages.into_iter().map(|edges| {
            let edges: Vec<(usize, usize)> = edges.into_iter()
                .filter(|(i, j)| *i < n && *j < n && i != j).collect();
            BoolMatrix::from_edges(n, &edges)
        }).collect();
        let mut prev = BoolMatrix::identity(n);
        for s in &stages {
            let mut next = prev.clone();
            next.or_assign(&prev.and_or_product(s));
            // prev ⊆ next
            prop_assert_eq!(prev.and(&next), prev.clone());
            prev = next;
        }
        let stages: Vec<SparseBoolMatrix> = stages.iter().map(SparseBoolMatrix::from).collect();
        prop_assert_eq!(prev, knowledge_closure(n, &stages));
    }

    /// Every algorithm produces a valid barrier over any member subset.
    #[test]
    fn algorithms_always_synchronize_members(
        n in 2usize..24,
        selector in prop::collection::vec(any::<bool>(), 24),
        alg_idx in 0usize..5,
    ) {
        let members: Vec<usize> = (0..n).filter(|&r| selector[r]).collect();
        prop_assume!(members.len() >= 2);
        let algs = [Algorithm::Linear, Algorithm::Tree, Algorithm::Dissemination,
                    Algorithm::KAry(3), Algorithm::Butterfly];
        let alg = algs[alg_idx];
        prop_assume!(alg.applicable(members.len()));
        let sched = alg.full_schedule(n, &members);
        prop_assert!(verify::synchronizes_subset(&sched, &members));
    }

    /// Appending the reversed-transposed departure to any arrival
    /// sequence whose root collects all knowledge yields a full barrier.
    #[test]
    fn arrival_plus_transposed_departure_is_barrier(p in 2usize..32) {
        for alg in [Algorithm::Tree, Algorithm::Linear, Algorithm::KAry(4)] {
            let members: Vec<usize> = (0..p).collect();
            let mut sched = BarrierSchedule::new(p);
            for m in alg.arrival_embedded(p, &members) {
                sched.push(Stage::arrival(m));
            }
            sched.append(sched.departure_reversed(0));
            prop_assert!(verify::is_barrier(&sched), "{alg} p={p}");
        }
    }

    /// The tuner always emits verified barriers over random machines and
    /// random (valid) cost profiles, and its prediction is positive.
    #[test]
    fn tuner_output_is_always_valid(machine in arb_machine(), seed in 0u64..1000) {
        let p = machine.total_cores();
        prop_assume!(p >= 2);
        let mut profile = TopologyProfile::from_ground_truth(&machine, &RankMapping::Block);
        // Perturb the profile deterministically to exercise odd shapes.
        for i in 0..p {
            for j in 0..p {
                if i != j {
                    let f = 1.0 + 0.3 * (((seed + (i * p + j) as u64) % 7) as f64 / 7.0);
                    profile.cost.o[(i, j)] *= f;
                    profile.cost.l[(i, j)] *= f;
                }
            }
        }
        profile.cost.symmetrize();
        let members: Vec<usize> = (0..p).collect();
        let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
        prop_assert!(verify::is_barrier(&tuned.schedule));
        prop_assert!(tuned.predicted_cost > 0.0);
        // Compiled programs conserve signals.
        let programs = compile_schedule(&tuned.schedule).expect("tuned schedule compiles");
        let sends: usize = programs.iter().map(|rp| rp.send_count()).sum();
        prop_assert_eq!(sends, tuned.schedule.total_signals());
    }

    /// Cost prediction is monotone in arrival skews: delaying any rank
    /// never finishes the barrier earlier.
    #[test]
    fn prediction_monotone_in_skews(
        costs in arb_costs(6),
        skew_rank in 0usize..6,
        skew in 0.0f64..50.0,
    ) {
        let members: Vec<usize> = (0..6).collect();
        let sched = Algorithm::Tree.full_schedule(6, &members);
        let mut eval = CostEvaluator::new(CostParams::default());
        let base = eval.predict(&sched, &costs, None);
        let mut skews = vec![0.0; 6];
        skews[skew_rank] = skew;
        let delayed = eval.predict(&sched, &costs, Some(&skews));
        prop_assert!(delayed.barrier_cost >= base.barrier_cost - 1e-12);
    }

    /// Per-rank exit times are never before the critical stage frontier
    /// start, and the barrier cost equals the max exit.
    #[test]
    fn prediction_internal_consistency(costs in arb_costs(8), stage in arb_stage(8)) {
        prop_assume!(!stage.is_zero());
        let mut sched = BarrierSchedule::new(8);
        sched.push(Stage::arrival(stage));
        let pred = CostEvaluator::new(CostParams::default()).predict(&sched, &costs, None);
        let max_exit = pred.rank_exit.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((pred.barrier_cost - max_exit).abs() < 1e-12);
        prop_assert!(pred.barrier_cost >= 0.0);
    }

    /// The symmetrized metric derived from any symmetric positive cost
    /// matrix has zero diagonal and symmetric distances.
    #[test]
    fn metric_axioms_hold_structurally(costs in arb_costs(7)) {
        let metric = DistanceMetric::from_costs(&costs);
        for i in 0..7 {
            prop_assert_eq!(metric.dist(i, i), 0.0);
            for j in 0..7 {
                prop_assert_eq!(metric.dist(i, j), metric.dist(j, i));
                if i != j {
                    prop_assert!(metric.dist(i, j) > 0.0);
                }
            }
        }
        prop_assert!(metric.diameter() > 0.0);
    }
}
