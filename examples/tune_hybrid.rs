//! The Fig. 10 walkthrough: watch the greedy composer build a
//! hierarchical, customized barrier for 22 processes round-robin on
//! 3 dual quad-core nodes, then inspect the generated code.
//!
//! ```text
//! cargo run --release --example tune_hybrid
//! ```

use hbarrier::core::codegen::{compile_schedule, rust_source};
use hbarrier::core::verify;
use hbarrier::prelude::*;

fn main() {
    // The paper's Fig. 10 case: 3 nodes, 22 processes, round-robin.
    let machine = MachineSpec::dual_quad_cluster(3);
    let mapping = RankMapping::RoundRobin;
    let profile = TopologyProfile::from_ground_truth_for(&machine, &mapping, 22);
    let members: Vec<usize> = (0..22).collect();

    let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());

    println!("=== cluster tree (SSS, sparseness 35% of diameter) ===");
    print!("{}", tuned.tree.render());

    println!("\n=== greedy per-cluster choices ===");
    for c in &tuned.choices {
        println!(
            "depth {} | participants {:?} -> {} (score {:.2} us)",
            c.depth,
            c.participants,
            c.algorithm,
            c.score * 1e6
        );
    }

    println!("\n=== composed schedule ===");
    println!("{}", tuned.schedule);
    println!(
        "stages: {}, signals: {}, predicted cost: {:.1} us",
        tuned.schedule.len(),
        tuned.schedule.total_signals(),
        tuned.predicted_cost * 1e6
    );

    // Eq. 3 verification (the tuner already asserts this internally).
    assert!(verify::is_barrier(&tuned.schedule));
    println!(
        "Eq. 3 knowledge closure: all {}² entries non-zero — valid barrier",
        22
    );

    // Compare against forcing each single algorithm through the same
    // hierarchy (the ablation of DESIGN.md §5).
    println!("\n=== ablation: forced single-algorithm hierarchies ===");
    for alg in hbarrier::core::algorithms::Algorithm::PAPER_SET {
        let forced = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::forced(alg));
        println!(
            "forced {:>14}: predicted {:.1} us",
            alg.to_string(),
            forced.predicted_cost * 1e6
        );
    }
    println!(
        "greedy hybrid        : predicted {:.1} us",
        tuned.predicted_cost * 1e6
    );

    // The generated Rust source (the paper emits C; both are available).
    let programs = compile_schedule(&tuned.schedule).expect("schedule compiles");
    let src = rust_source("hybrid_barrier_22", &programs).expect("valid identifier");
    println!(
        "\ngenerated Rust barrier: {} lines (rank 0's arm shown)\n",
        src.lines().count()
    );
    let mut in_arm = false;
    for line in src.lines() {
        if line.trim_start().starts_with("0 =>") {
            in_arm = true;
        }
        if in_arm {
            println!("  {line}");
            if line.trim() == "}" {
                break;
            }
        }
    }
}
