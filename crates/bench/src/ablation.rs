//! Ablation study of the tuner's design choices (DESIGN.md §6).
//!
//! Compares, on one platform and process count, the measured execution
//! time of:
//!
//! * the paper's greedy hybrid (baseline configuration);
//! * the extended-candidate hybrid (k-ary, butterfly added);
//! * forced single-algorithm hierarchies (greedy choice disabled);
//! * a sweep of the SSS sparseness parameter;
//! * the topology-neutral tree (no tuning at all).

use crate::context::ExperimentContext;
use hbar_core::algorithms::Algorithm;
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_core::cost::{CostEvaluator, CostParams};

/// One ablation row.
#[derive(Clone, Debug)]
pub struct AblationRow {
    pub label: String,
    pub predicted: f64,
    pub measured: f64,
    pub stages: usize,
    pub signals: usize,
}

/// Runs the ablation suite at `p` ranks on the context's platform.
pub fn run_ablation(ctx: &mut ExperimentContext, p: usize) -> Vec<AblationRow> {
    let profile = ctx.profile_for(p);
    let members: Vec<usize> = (0..p).collect();
    let mut rows = Vec::new();
    let mut push_tuned = |ctx: &ExperimentContext, label: &str, cfg: &TunerConfig| {
        let tuned = tune_hybrid_costs(&profile.cost, &members, cfg);
        rows.push(AblationRow {
            label: label.to_string(),
            predicted: tuned.predicted_cost,
            measured: ctx.measure_barrier(&tuned.schedule, p),
            stages: tuned.schedule.len(),
            signals: tuned.schedule.total_signals(),
        });
    };

    push_tuned(ctx, "greedy (paper set)", &TunerConfig::default());
    push_tuned(ctx, "greedy (extended set)", &TunerConfig::extended());
    push_tuned(
        ctx,
        "greedy (exact scoring)",
        &TunerConfig {
            score_exact: true,
            ..TunerConfig::default()
        },
    );
    for alg in Algorithm::PAPER_SET {
        push_tuned(ctx, &format!("forced {alg}"), &TunerConfig::forced(alg));
    }
    for sparseness in [0.15, 0.35, 0.60] {
        push_tuned(
            ctx,
            &format!("sparseness {sparseness:.2}"),
            &TunerConfig {
                sparseness,
                ..TunerConfig::default()
            },
        );
    }

    // The untuned baseline.
    let neutral = Algorithm::Tree.full_schedule(p, &members);
    rows.push(AblationRow {
        label: "neutral tree (untuned)".into(),
        predicted: CostEvaluator::new(CostParams::default()).barrier_cost(
            &neutral,
            &profile.cost,
            None,
        ),
        measured: ctx.measure_barrier(&neutral, p),
        stages: neutral.len(),
        signals: neutral.total_signals(),
    });
    rows
}

/// Renders the ablation rows as a text table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>7} {:>8}",
        "configuration", "predicted", "measured", "stages", "signals"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>10.1}us {:>10.1}us {:>7} {:>8}",
            r.label,
            r.predicted * 1e6,
            r.measured * 1e6,
            r.stages,
            r.signals
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_topo::machine::MachineSpec;

    #[test]
    fn ablation_rows_cover_all_configurations() {
        let mut ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(2));
        let rows = run_ablation(&mut ctx, 16);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.measured > 0.0 && r.predicted > 0.0, "{}", r.label);
            assert!(r.stages > 0 && r.signals > 0);
        }
        let table = render_ablation(&rows);
        assert!(table.contains("greedy (paper set)"));
        assert!(table.contains("neutral tree"));
    }

    #[test]
    fn greedy_never_loses_to_its_own_forced_components() {
        // The point of the ablation: greedy choice ≤ every forced single
        // algorithm, in predicted cost.
        let mut ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(2));
        let rows = run_ablation(&mut ctx, 16);
        let greedy = rows
            .iter()
            .find(|r| r.label == "greedy (paper set)")
            .unwrap();
        for r in rows.iter().filter(|r| r.label.starts_with("forced")) {
            assert!(
                greedy.predicted <= r.predicted * 1.0001,
                "greedy {} vs {} {}",
                greedy.predicted,
                r.label,
                r.predicted
            );
        }
    }
}
