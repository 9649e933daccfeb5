//! The root is chosen by the price of the whole barrier it completes.
//!
//! The oracle is the slow lookahead: compose the full schedule under
//! every root candidate — the tuned children's arrival, the candidate's
//! arrival and, unless it fully synchronizes, its departure, then the
//! children's transposed departure — and predict each one. The tuner
//! prices each candidate once from the state the children's arrival
//! leaves; both must agree on the root and, bit for bit, on its price.
//!
//! On congested costs the root often changes. On homogeneous ground
//! truth it must not: there the local greedy root is already the
//! cheapest whole barrier, which is what keeps the paper-fidelity pins
//! and the executed-quality grid where they were.

use hbar_core::algorithms::Algorithm;
use hbar_core::clustering::splitmix64;
use hbar_core::compose::{
    level_candidates, tune_hybrid_costs, LevelChoice, TunedBarrier, TunerConfig,
};
use hbar_core::cost::{CostEvaluator, CostParams};
use hbar_core::schedule::{BarrierSchedule, Stage};
use hbar_topo::cost::{CostMatrices, SendMode};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use proptest::prelude::*;

fn barrier_cost(schedule: &BarrierSchedule, cost: &CostMatrices) -> f64 {
    CostEvaluator::new(CostParams::default()).barrier_cost(schedule, cost, None)
}

fn root_of(tuned: &TunedBarrier) -> &LevelChoice {
    (tuned.choices.iter())
        .find(|c| c.depth == 0)
        .expect("a root choice")
}

/// Ground truth of `nodes` dual quad-core nodes for `p` ranks, with one
/// node in four (at least one) congested by its own factor in `[1, 4]`:
/// `O_ij` and `L_ij` between ranks on different nodes are multiplied by
/// the larger of the two nodes' factors.
fn congested(nodes: usize, p: usize, mapping: &RankMapping, seed: u64) -> CostMatrices {
    let machine = MachineSpec::new(nodes, 2, 4);
    let node_of: Vec<usize> = (mapping.cores(&machine, p).iter())
        .map(|c| c.node)
        .collect();
    let mut draw = (0u64..).map(|k| splitmix64(seed.wrapping_mul(0x1_0001) ^ k));
    let mut factor = vec![1.0f64; nodes];
    for _ in 0..(nodes / 4).max(1) {
        let node = draw.next().expect("endless") as usize % nodes;
        let unit = (draw.next().expect("endless") >> 11) as f64 / (1u64 << 53) as f64;
        factor[node] = 1.0 + 3.0 * unit;
    }
    let mut cost = TopologyProfile::from_ground_truth_for(&machine, mapping, p).cost;
    for i in 0..p {
        for j in 0..p {
            if node_of[i] != node_of[j] {
                let f = factor[node_of[i]].max(factor[node_of[j]]);
                cost.o[(i, j)] *= f;
                cost.l[(i, j)] *= f;
            }
        }
    }
    cost
}

/// The tuned schedule's arrival stages below the root: every arrival
/// stage but the root's own, which are the ones signalling between root
/// participants (a child's stage stays inside one child, and holds one
/// root participant at most).
fn children_arrival(tuned: &TunedBarrier) -> Vec<Stage> {
    let root = &root_of(tuned).participants;
    (tuned.schedule.stages().iter())
        .filter(|s| s.mode == SendMode::General)
        .filter(|s| {
            !(s.matrix.edges())
                .any(|(i, j)| root.binary_search(&i).is_ok() && root.binary_search(&j).is_ok())
        })
        .cloned()
        .collect()
}

/// The barrier composed around `children` with `alg` at the root.
fn composed(
    n: usize,
    children: &[Stage],
    alg: Algorithm,
    participants: &[usize],
) -> BarrierSchedule {
    let mut below = BarrierSchedule::new(n);
    for stage in children {
        below.push(stage.clone());
    }
    let root = BarrierSchedule::from_arrival_matrices(n, alg.arrival_embedded(n, participants));
    let mut schedule = below.clone();
    schedule.append(root.clone());
    if alg.needs_departure() {
        schedule.append(root.departure_reversed(0));
    }
    schedule.append(below.departure_reversed(0));
    schedule.strip_noop_stages();
    schedule
}

/// The root candidates, in the tuner's scoring order.
fn candidates(cfg: &TunerConfig, m: usize) -> Vec<Algorithm> {
    (cfg.candidates.iter())
        .flat_map(|&c| level_candidates(c, m))
        .collect()
}

/// `alg`'s local price over `participants`: its full local schedule —
/// arrival, then the transposed departure unless it fully synchronizes —
/// predicted embedded over all ranks.
fn local_price(cost: &CostMatrices, alg: Algorithm, participants: &[usize]) -> f64 {
    let n = cost.p();
    let mut sched =
        BarrierSchedule::from_arrival_matrices(n, alg.arrival_embedded(n, participants));
    if alg.needs_departure() {
        sched.append(sched.departure_reversed(0));
    }
    barrier_cost(&sched, cost)
}

/// The root the local greedy rule picks — the first cheapest local price
/// — with that price.
fn local_argmin(
    cost: &CostMatrices,
    cfg: &TunerConfig,
    participants: &[usize],
) -> (Algorithm, f64) {
    (candidates(cfg, participants.len()).into_iter())
        .map(|a| (a, local_price(cost, a, participants)))
        .reduce(|a, b| if b.1 < a.1 { b } else { a })
        .expect("an applicable candidate")
}

/// Every check of the rule on one tune; returns the local greedy root.
fn check_root(cost: &CostMatrices, cfg: &TunerConfig) -> (TunedBarrier, Algorithm) {
    let n = cost.p();
    let members: Vec<usize> = (0..n).collect();
    let tuned = tune_hybrid_costs(cost, &members, cfg);
    let root = root_of(&tuned).clone();
    let children = children_arrival(&tuned);
    assert_eq!(
        composed(n, &children, root.algorithm, &root.participants),
        tuned.schedule,
        "the oracle composes another schedule than the tuner"
    );
    assert_eq!(
        tuned.predicted_cost.to_bits(),
        barrier_cost(&tuned.schedule, cost).to_bits(),
        "predicted_cost is not the schedule's price"
    );
    let priced: Vec<(Algorithm, f64)> = (candidates(cfg, root.participants.len()).into_iter())
        .map(|a| {
            (
                a,
                barrier_cost(&composed(n, &children, a, &root.participants), cost),
            )
        })
        .collect();
    let cheapest = (priced.iter().map(|&(_, c)| c)).fold(f64::INFINITY, f64::min);
    assert_eq!(
        tuned.predicted_cost.to_bits(),
        cheapest.to_bits(),
        "{}: root {} is not the argmin of {priced:?}",
        n,
        root.algorithm
    );
    let (greedy, local) = local_argmin(cost, cfg, &root.participants);
    let greedy_whole = barrier_cost(&composed(n, &children, greedy, &root.participants), cost);
    assert!(
        tuned.predicted_cost <= greedy_whole,
        "the root in context prices {:e}, above the local root {greedy}'s {greedy_whole:e}",
        tuned.predicted_cost
    );
    // The score stays the chosen root's local price.
    let score = local_price(cost, root.algorithm, &root.participants);
    assert_eq!(root.score.to_bits(), score.to_bits(), "the root's score");
    if root.algorithm == greedy {
        assert_eq!(score.to_bits(), local.to_bits());
    }
    (tuned, greedy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On congested dual quad-core clusters of 2–8 nodes, under both
    /// placements, the root is the cheapest whole barrier among every
    /// candidate's composed schedule, its price is `predicted_cost` bit
    /// for bit, and it never prices above the local greedy root.
    #[test]
    fn root_is_the_argmin_of_the_composed_barrier(
        nodes in 2usize..=8,
        fill in 0usize..8,
        round_robin in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let p = nodes * 8 - fill;
        let mapping = if round_robin { RankMapping::RoundRobin } else { RankMapping::Block };
        let cost = congested(nodes, p, &mapping, seed);
        for cfg in [TunerConfig::default(), TunerConfig::paper()] {
            check_root(&cost, &cfg);
        }
    }
}

/// One congested cluster where the root changes: 8 nodes, round-robin,
/// P = 64, seed 3. The local greedy rule takes 3-way dissemination at the
/// root; priced after its children and before their departure, a linear
/// root completes a cheaper barrier.
#[test]
fn a_congested_node_turns_the_root_linear() {
    let cost = congested(8, 64, &RankMapping::RoundRobin, 3);
    let (tuned, greedy) = check_root(&cost, &TunerConfig::default());
    assert_eq!(greedy, Algorithm::NWay(3));
    assert_eq!(tuned.root_algorithm(), Some(Algorithm::Linear));
}

/// On homogeneous ground truth — the 36 cells of the executed-quality
/// grid and the paper's clusters A and B — the root chosen in context is
/// the local argmin, for the paper's tuner and the default one.
#[test]
fn ground_truth_roots_are_the_local_argmin() {
    let mut cells = Vec::new();
    for per_node in [8usize, 12] {
        for mapping in [RankMapping::Block, RankMapping::RoundRobin] {
            for p in [16usize, 32, 48, 64, 96, 120, 128, 256, 1024] {
                let machine = MachineSpec::new(p.div_ceil(per_node), 2, per_node / 2);
                cells.push((machine, mapping.clone(), p));
            }
        }
    }
    cells.push((
        MachineSpec::dual_quad_cluster(8),
        RankMapping::RoundRobin,
        64,
    ));
    cells.push((
        MachineSpec::dual_hex_cluster(10),
        RankMapping::RoundRobin,
        120,
    ));
    for (machine, mapping, p) in cells {
        let cost = TopologyProfile::from_ground_truth_for(&machine, &mapping, p).cost;
        let members: Vec<usize> = (0..p).collect();
        for cfg in [TunerConfig::default(), TunerConfig::paper()] {
            let tuned = tune_hybrid_costs(&cost, &members, &cfg);
            let root = root_of(&tuned);
            let (greedy, local) = local_argmin(&cost, &cfg, &root.participants);
            let cell = format!("{}, {mapping:?}, P = {p}", machine.name);
            assert_eq!(root.algorithm, greedy, "{cell}");
            assert_eq!(root.score.to_bits(), local.to_bits(), "{cell}");
        }
    }
}
