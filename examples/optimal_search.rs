//! Greedy hybrid vs exhaustive optimum (§VII-B's road not taken).
//!
//! The paper chooses greedy composition over searching "the entire space
//! of admissible matrix sequences". For small rank counts the search is
//! tractable; this example quantifies the gap on a two-node machine.
//!
//! ```text
//! cargo run --release --example optimal_search
//! ```

use hbarrier::core::compose::{search_optimal_barrier, SearchConfig};
use hbarrier::prelude::*;

fn main() {
    // A small heterogeneous platform: 2 nodes × 1 socket × 2 cores.
    // (Exhaustive search is exponential; p = 4 completes in milliseconds,
    // p = 6 already needs minutes and a raised expansion cap.)
    let machine = MachineSpec::new(2, 1, 2);
    let mapping = RankMapping::Block;
    let profile = TopologyProfile::from_ground_truth(&machine, &mapping);
    let p = profile.p;
    println!("platform: {} ({p} ranks)", machine.name);

    // Greedy hybrid (the paper's construction).
    let members: Vec<usize> = (0..p).collect();
    let greedy = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    println!(
        "greedy hybrid:    {} stages, {} signals, predicted {:.2} us",
        greedy.schedule.len(),
        greedy.schedule.total_signals(),
        greedy.predicted_cost * 1e6
    );

    // Exhaustive search over one-signal-per-rank Eq. 1 stages, seeded
    // with the greedy incumbent.
    let t0 = std::time::Instant::now();
    let result = search_optimal_barrier(
        &profile.cost,
        &SearchConfig {
            max_stages: 5,
            ..SearchConfig::default()
        },
        Some(&greedy.schedule),
    );
    println!(
        "exhaustive search: {} stages, {} signals, predicted {:.2} us \
         ({} states in {:.2?}, {})",
        result.schedule.len(),
        result.schedule.total_signals(),
        result.cost * 1e6,
        result.expansions,
        t0.elapsed(),
        if result.complete {
            "complete"
        } else {
            "truncated"
        }
    );
    assert!(result.schedule.is_barrier());
    let gap = greedy.predicted_cost / result.cost;
    println!(
        "greedy is within {:.2}x of the restricted-space optimum",
        gap
    );
    println!("\noptimal schedule found:\n{}", result.schedule);
}
