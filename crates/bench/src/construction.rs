//! Figure 10: construction walkthrough of a hierarchical, customized
//! barrier for the paper's 3-node / 22-process round-robin case.

use crate::context::ExperimentContext;
use hbar_core::compose::{tune_hybrid_costs, TunedBarrier, TunerConfig};
use hbar_topo::machine::MachineSpec;
use std::fmt::Write as _;

/// Result of the Fig. 10 experiment.
#[derive(Clone, Debug)]
pub struct ConstructionFigure {
    pub tuned: TunedBarrier,
    /// Human-readable walkthrough: cluster tree, per-cluster choices,
    /// and the final stage matrices.
    pub walkthrough: String,
}

/// Tunes the 22-process / 3-node case and renders the construction.
pub fn run_construction(quick: bool) -> ConstructionFigure {
    let mut ctx = if quick {
        ExperimentContext::exact(MachineSpec::dual_quad_cluster(3))
    } else {
        ExperimentContext::new(MachineSpec::dual_quad_cluster(3), false, 0xF16)
    };
    let profile = ctx.profile_for(22);
    let members: Vec<usize> = (0..22).collect();
    let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    let walkthrough = render_walkthrough(&tuned);
    ConstructionFigure { tuned, walkthrough }
}

/// Renders the construction provenance of any tuned barrier.
pub fn render_walkthrough(tuned: &TunedBarrier) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Cluster tree:");
    out.push_str(&tuned.tree.render());
    let _ = writeln!(out, "\nGreedy choices (full local schedule cost):");
    for c in &tuned.choices {
        let _ = writeln!(
            out,
            "  depth {} | {:>2} participants {:?} -> {} (score {:.1} us)",
            c.depth,
            c.participants.len(),
            c.participants,
            c.algorithm,
            c.score * 1e6
        );
    }
    let _ = writeln!(
        out,
        "\nComposed schedule: {} stages, {} signals, predicted {:.1} us",
        tuned.schedule.len(),
        tuned.schedule.total_signals(),
        tuned.predicted_cost * 1e6
    );
    let _ = writeln!(out, "\n{}", tuned.schedule);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_core::verify;

    #[test]
    fn fig10_construction_is_valid_and_hierarchical() {
        let fig = run_construction(true);
        assert!(verify::is_barrier(&fig.tuned.schedule));
        // Round-robin over 3 nodes groups ranks by r mod 3.
        assert_eq!(fig.tuned.tree.children.len(), 3);
        for node_cluster in &fig.tuned.tree.children {
            let m0 = node_cluster.members[0] % 3;
            assert!(node_cluster.members.iter().all(|&r| r % 3 == m0));
        }
        // Representatives of the three node clusters are 0, 1, 2 — the
        // top-level participants of the paper's Fig. 10.
        let reps: Vec<usize> = fig
            .tuned
            .tree
            .children
            .iter()
            .map(|c| c.representative())
            .collect();
        assert_eq!(reps, vec![0, 1, 2]);
    }

    #[test]
    fn walkthrough_mentions_all_parts() {
        let fig = run_construction(true);
        for needle in [
            "Cluster tree:",
            "Greedy choices",
            "Composed schedule",
            "arrival",
        ] {
            assert!(fig.walkthrough.contains(needle), "missing {needle}");
        }
    }
}
