//! Allocation gate: no `P²`-sized `f64` object comes back into a re-tune.
//!
//! The clustering metric is a view of the costs it measures, so a warm
//! changed-cost tune allocates nothing proportional to `P²`. This binary
//! holds one test, because it counts through the process-wide allocator.

use hbarrier::core::clustering::build_cluster_tree;
use hbarrier::core::compose::tune_hybrid_costs_with;
use hbarrier::core::cost::CostEvaluator;
use hbarrier::prelude::*;
use hbarrier::topo::compressed::CompressedCostModel;
use hbarrier::topo::cost::CostProvider;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// a statistic and guards nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest single allocation `work` makes, in bytes.
fn largest_allocation<T>(work: impl FnOnce() -> T) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    std::hint::black_box(work());
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn only_an_asymmetric_compressed_model_allocates_a_p_squared_metric() {
    let p = 512;
    let quarter_matrix = p * p * 8 / 4;
    let machine = MachineSpec::new(p / 8, 2, 4);
    let base = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p).cost;
    let members: Vec<usize> = (0..p).collect();
    let cfg = TunerConfig::default();

    // Dense costs: a warm evaluator, then a tune on changed costs (node 0
    // congested, which merges the other nodes at the root of the tree).
    let mut changed = base.clone();
    let on_node_0 = |rank: usize| rank.is_multiple_of(machine.nodes);
    for m in [&mut changed.o, &mut changed.l] {
        for i in 0..p {
            for j in 0..p {
                if on_node_0(i) != on_node_0(j) {
                    m[(i, j)] *= 3.5;
                }
            }
        }
    }
    let mut eval = CostEvaluator::new(cfg.cost_params);
    let warm = tune_hybrid_costs_with(&base, &members, &cfg, &mut eval);
    let mut retuned = None;
    let dense = largest_allocation(|| {
        retuned = Some(tune_hybrid_costs_with(&changed, &members, &cfg, &mut eval));
    });
    assert!(
        retuned.expect("tuned").tree != warm.tree,
        "the costs changed"
    );
    assert!(
        dense < quarter_matrix,
        "a dense re-tune at P = {p} allocated {dense} bytes at once"
    );

    // The compressed model of the same costs: classes, not cells.
    let symmetric = CompressedCostModel::from_dense(&changed).expect("few classes");
    assert!(symmetric.is_symmetric());
    let classed =
        largest_allocation(|| tune_hybrid_costs_with(&symmetric, &members, &cfg, &mut eval));
    assert!(
        classed < quarter_matrix,
        "a classed re-tune at P = {p} allocated {classed} bytes at once"
    );

    // One asymmetric cell, and the metric has to own a decompressed `O`:
    // the one case that pays for P² distances, and it pays for exactly one
    // matrix.
    changed.o[(3, 5)] *= 1.5;
    let asymmetric = CompressedCostModel::from_dense(&changed).expect("few classes");
    assert!(!asymmetric.is_symmetric());
    let fallback = largest_allocation(|| {
        let metric = asymmetric.distance_metric();
        build_cluster_tree(&metric, &members, cfg.sparseness, cfg.max_depth)
    });
    assert_eq!(fallback, p * p * 8);
}
