//! Full profiling workflow (§IV of the paper): run the pairwise
//! benchmarks on the simulated cluster, extract the O/L matrices by
//! regression, store the profile to disk, reload it, and render the
//! Fig. 9 heat map.
//!
//! ```text
//! cargo run --release --example profile_cluster
//! ```

use hbarrier::prelude::*;
use hbarrier::simnet::profiling::ProfilingConfig;
use hbarrier::simnet::{measure_profile_decomposed, LocalExecutor, NoiseModel, SweepConfig};
use hbarrier::topo::heatmap::{block_means, render_labelled};
use hbarrier::topo::machine::LinkClass;
use hbarrier::topo::metric::DistanceMetric;

fn main() {
    // One dual quad-core node under block mapping: ranks 0–3 share socket
    // 0, ranks 4–7 share socket 1 — the exact Fig. 9 configuration.
    let machine = MachineSpec::dual_quad_cluster(1);
    let mapping = RankMapping::Block;

    // Run the paper's benchmark schedule: 21 payload sizes × 25 reps for
    // each O_ij, 32 burst lengths × 25 reps for each L_ij, plus the
    // transmission-free O_ii calls — the exact sweep measures every pair.
    // The noise model injects the jitter and preemption spikes real
    // profiling runs suffer.
    let (noise, cfg) = (NoiseModel::realistic(7), ProfilingConfig::default());
    let (profile, _) = measure_profile_decomposed(
        &machine,
        &mapping,
        8,
        noise,
        &SweepConfig::exact(cfg.clone()),
        &mut LocalExecutor::new(machine.clone(), noise, cfg),
    )
    .expect("local execution is infallible");

    // Store and reload — the paper's decoupling of profiling from tuning.
    let dir = std::env::temp_dir().join("hbarrier_example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("dual_quad_node.profile.json");
    profile.save(&path).expect("save profile");
    let reloaded = TopologyProfile::load(&path).expect("load profile");
    println!("profile stored and reloaded: {}", path.display());
    assert_eq!(reloaded.p, 8);

    // Fig. 9: the L matrix of the node, with its two darker on-chip
    // blocks.
    println!();
    println!(
        "{}",
        render_labelled(&reloaded.cost.l, "L Matrix Heat Map, 2x4 cores")
    );
    let blocks = block_means(&reloaded.cost.l, 4);
    println!(
        "on-chip mean L = {:.2e} s, off-chip mean L = {:.2e} s, ratio = {:.2} (paper: ~4)",
        blocks.on,
        blocks.off,
        blocks.ratio()
    );

    // Compare measured estimates against what the benchmarks target.
    let gt = &machine.ground_truth;
    println!("\nmeasured vs ideal (noise-free) parameters:");
    for (label, class, pair) in [
        ("same-socket", LinkClass::SameSocket, (0usize, 1usize)),
        ("cross-socket", LinkClass::CrossSocket, (0, 4)),
    ] {
        println!(
            "  O {label}: measured {:.3e} s, ideal {:.3e} s",
            reloaded.cost.o[pair],
            gt.effective_o(class)
        );
        println!(
            "  L {label}: measured {:.3e} s, ideal {:.3e} s",
            reloaded.cost.l[pair],
            gt.effective_l(class)
        );
    }

    // The symmetrized profile is a metric space — the property SSS
    // clustering requires (§VII-A).
    let metric = DistanceMetric::from_costs(&reloaded.cost);
    let violations = metric.validate(0.10);
    println!(
        "\nmetric-space check (10% tolerance): {} violations, diameter {:.2e} s",
        violations.len(),
        metric.diameter()
    );
}
