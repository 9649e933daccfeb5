//! Dense ↔ class-compressed bit-parity.
//!
//! The compressed model's contract is that exact mode is a pure storage
//! change: every value read back is bit-identical to the dense matrix it
//! was built from, and therefore everything computed *from* those values
//! — `CostEvaluator` predictions and entire greedy tunes — is
//! bit-identical too. These tests drive that
//! contract through the real pipeline at the sizes the issue pins
//! (P = 8/64/256) and property-test it over randomized class-structured
//! matrices.

use hbar_core::algorithms::Algorithm;
use hbar_core::compose::{tune_hybrid_costs, tune_hybrid_costs_with, TunerConfig};
use hbar_core::cost::{CostEvaluator, CostParams};
use hbar_matrix::DenseMatrix;
use hbar_topo::cost::CostMatrices;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use hbar_topo::CompressedCostModel;
use proptest::prelude::*;

/// A ground-truth profile of the paper's cluster-A machine *shape*
/// (dual quad-core nodes) grown to exactly `p` ranks.
fn dense_profile(p: usize) -> CostMatrices {
    let machine = MachineSpec::new(p.div_ceil(8).max(1), 2, 4);
    TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p).cost
}

fn assert_costs_bit_equal(a: &CostMatrices, b: &CostMatrices) {
    assert_eq!(a.p(), b.p());
    for (x, y) in a.o.as_slice().iter().zip(b.o.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "O entries differ");
    }
    for (x, y) in a.l.as_slice().iter().zip(b.l.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "L entries differ");
    }
}

/// Full-pipeline parity at one size: the dense image, evaluator scoring
/// over a library schedule, and a complete tune (schedule, choices,
/// predicted cost) must agree bit-for-bit between the two backings.
fn assert_full_parity(p: usize) {
    let dense = dense_profile(p);
    let model = CompressedCostModel::from_dense(&dense).expect("ground truth compresses");

    // Storage round-trip.
    assert_costs_bit_equal(&model.to_dense(), &dense);

    // CostEvaluator scoring of a fixed library schedule.
    let members: Vec<usize> = (0..p).collect();
    let schedule = Algorithm::Dissemination.full_schedule(p, &members);
    let mut eval = CostEvaluator::new(CostParams::default());
    eval.rebind(&dense);
    let want = eval.predict(&schedule, &dense, None);
    eval.rebind(&model);
    let got = eval.predict(&schedule, &model, None);
    assert_eq!(want.barrier_cost.to_bits(), got.barrier_cost.to_bits());
    assert_eq!(want.rank_exit.len(), got.rank_exit.len());
    for (a, b) in want.rank_exit.iter().zip(&got.rank_exit) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // One evaluator rebound from the matrices to the model: the storages
    // fingerprint differently, so the memo is cleared and every entry
    // scored again — to the same tune.
    let cfg = TunerConfig::default();
    let mut eval = CostEvaluator::new(cfg.cost_params);
    let from_dense = tune_hybrid_costs_with(&dense, &members, &cfg, &mut eval);
    let scores = eval.cached_scores();
    assert!(scores > 0, "tune must memoize scores");
    eval.rebind(&model);
    assert_eq!(eval.cached_scores(), 0, "another storage is another model");
    let from_model = tune_hybrid_costs_with(&model, &members, &cfg, &mut eval);
    assert_eq!(eval.cached_scores(), scores);

    // Full-tune parity.
    assert_eq!(
        from_dense.schedule.stages(),
        from_model.schedule.stages(),
        "p = {p}: tuned schedules diverge across backings"
    );
    assert_eq!(
        from_dense.predicted_cost.to_bits(),
        from_model.predicted_cost.to_bits()
    );
    assert_eq!(from_dense.choices.len(), from_model.choices.len());
    for (a, b) in from_dense.choices.iter().zip(&from_model.choices) {
        assert_eq!(a.participants, b.participants);
        assert_eq!(a.algorithm, b.algorithm);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }

    // Cold tunes (fresh evaluators) agree with the warm ones.
    let cold = tune_hybrid_costs(&model, &members, &cfg);
    assert_eq!(cold.schedule.stages(), from_dense.schedule.stages());
    assert_eq!(
        cold.predicted_cost.to_bits(),
        from_dense.predicted_cost.to_bits()
    );
}

#[test]
fn full_parity_at_p8() {
    assert_full_parity(8);
}

#[test]
fn full_parity_at_p64() {
    assert_full_parity(64);
}

#[test]
fn full_parity_at_p256() {
    assert_full_parity(256);
}

/// Random class-structured matrices: `k` distinct off-diagonal `(O, L)`
/// behaviours stamped over the grid by index arithmetic, plus a distinct
/// diagonal. This is the structure real machines have and the compressed
/// model exists for.
fn classed_costs(p: usize, k: usize, seed: u64) -> CostMatrices {
    // SplitMix64 so the property is deterministic per seed.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let values: Vec<(f64, f64)> = (0..k)
        .map(|_| {
            let o = 1e-6 * (1.0 + (next() % 1000) as f64 / 100.0);
            let l = 1e-7 * (1.0 + (next() % 1000) as f64 / 100.0);
            (o, l)
        })
        .collect();
    let class_of: Vec<usize> = (0..p * p).map(|_| (next() as usize) % k).collect();
    // Symmetrize the class assignment so the metric shares the grid.
    let mut o = DenseMatrix::new(p);
    let mut l = DenseMatrix::new(p);
    for i in 0..p {
        o[(i, i)] = 1e-7;
        for j in (i + 1)..p {
            let (vo, vl) = values[class_of[i * p + j]];
            o[(i, j)] = vo;
            o[(j, i)] = vo;
            l[(i, j)] = vl;
            l[(j, i)] = vl;
        }
    }
    CostMatrices { o, l }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact-mode parity holds for arbitrary class-structured models,
    /// not just ground-truth machine shapes: storage round-trip,
    /// evaluator prediction, and a full tune.
    #[test]
    fn compressed_pipeline_is_bit_identical_to_dense(
        p in 2usize..24,
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let dense = classed_costs(p, k, seed);
        let model = CompressedCostModel::from_dense(&dense).expect("classed model compresses");
        prop_assert!(model.classes() <= 2 * k + 1);

        assert_costs_bit_equal(&model.to_dense(), &dense);

        let members: Vec<usize> = (0..p).collect();
        let schedule = Algorithm::Tree.full_schedule(p, &members);
        let mut eval = CostEvaluator::new(CostParams::default());
        eval.rebind(&dense);
        let want = eval.barrier_cost(&schedule, &dense, None);
        eval.rebind(&model);
        let got = eval.barrier_cost(&schedule, &model, None);
        prop_assert_eq!(want.to_bits(), got.to_bits());

        let cfg = TunerConfig::default();
        let a = tune_hybrid_costs(&dense, &members, &cfg);
        let b = tune_hybrid_costs(&model, &members, &cfg);
        prop_assert_eq!(a.schedule.stages(), b.schedule.stages());
        prop_assert_eq!(a.predicted_cost.to_bits(), b.predicted_cost.to_bits());
    }
}
