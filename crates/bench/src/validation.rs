//! Figures 5–8: model validation — predicted vs measured execution time
//! of the linear (L), dissemination (D) and tree (T) barriers.

use crate::context::ExperimentContext;
use crate::data::{Series, SeriesGroup};
use hbar_core::algorithms::Algorithm;
use hbar_core::cost::{CostEvaluator, CostParams};

/// The data behind one validation figure (Fig. 5 or Fig. 6): a predicted
/// panel and a measured panel, each holding the three algorithm curves.
#[derive(Clone, Debug)]
pub struct ValidationFigure {
    pub predicted: SeriesGroup,
    pub measured: SeriesGroup,
}

impl ValidationFigure {
    /// Regroups the data per algorithm (measured vs predicted overlay) —
    /// exactly how Figures 7 and 8 re-present the Fig. 5/6 data.
    pub fn per_algorithm(&self) -> Vec<SeriesGroup> {
        Algorithm::PAPER_SET
            .iter()
            .map(|alg| {
                let tag = alg.tag();
                let mut g = SeriesGroup::new(format!("{alg} barrier: measured vs predicted"));
                for (src, label) in [(&self.measured, "Measured"), (&self.predicted, "Predicted")] {
                    let mut s = Series::new(label);
                    if let Some(curve) = src.get(&tag) {
                        s.points = curve.points.clone();
                    }
                    g.series.push(s);
                }
                g
            })
            .collect()
    }
}

/// Runs the validation experiment on a platform: for every process count
/// in the sweep, predict and measure all three paper algorithms.
pub fn run_validation(
    ctx: &mut ExperimentContext,
    sweep: &[usize],
    title: &str,
) -> ValidationFigure {
    let mut eval = CostEvaluator::new(CostParams::default());
    let mut predicted = SeriesGroup::new(format!("{title} — predicted"));
    let mut measured = SeriesGroup::new(format!("{title} — measured"));
    for alg in Algorithm::PAPER_SET {
        predicted.series.push(Series::new(alg.tag()));
        measured.series.push(Series::new(alg.tag()));
    }
    for &p in sweep {
        let profile = ctx.profile_for(p);
        let members: Vec<usize> = (0..p).collect();
        for (idx, alg) in Algorithm::PAPER_SET.iter().enumerate() {
            let schedule = alg.full_schedule(p, &members);
            let pred = eval.barrier_cost(&schedule, &profile.cost, None);
            let meas = ctx.measure_barrier(&schedule, p);
            predicted.series[idx].push(p as f64, pred);
            measured.series[idx].push(p as f64, meas);
        }
    }
    ValidationFigure {
        predicted,
        measured,
    }
}

/// Shape checks the paper's discussion of Figures 5–8 makes; each entry
/// is a named boolean so EXPERIMENTS.md can record which claims hold.
#[derive(Clone, Debug)]
pub struct ValidationChecks {
    /// Linear is the slowest algorithm at the largest measured size.
    pub linear_slowest_at_scale: bool,
    /// Model and measurement rank the three algorithms identically at the
    /// largest size.
    pub ranking_agrees_at_scale: bool,
    /// Dissemination dips at the power-of-two full-machine size relative
    /// to neighbouring odd sizes (only meaningful for cluster A's 64).
    pub dissemination_power_of_two_dip: Option<bool>,
    /// Worst absolute prediction error across all points (seconds).
    pub worst_abs_error: f64,
}

/// Evaluates the shape checks on a validation figure.
pub fn validation_checks(fig: &ValidationFigure) -> ValidationChecks {
    let xs = fig.measured.xs();
    let last = *xs.last().expect("non-empty sweep");
    let m = |tag: &str, x: f64| fig.measured.get(tag).and_then(|s| s.y_at(x));
    let p = |tag: &str, x: f64| fig.predicted.get(tag).and_then(|s| s.y_at(x));

    let (ml, mt, md) = (m("L", last), m("T", last), m("D", last));
    let linear_slowest_at_scale = match (ml, mt, md) {
        (Some(l), Some(t), Some(d)) => l > t && l > d,
        _ => false,
    };

    let rank = |l: f64, t: f64, d: f64| {
        let mut v = [("L", l), ("T", t), ("D", d)];
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        [v[0].0, v[1].0, v[2].0]
    };
    let ranking_agrees_at_scale = match (ml, mt, md, p("L", last), p("T", last), p("D", last)) {
        (Some(a), Some(b), Some(c), Some(x), Some(y), Some(z)) => rank(a, b, c) == rank(x, y, z),
        _ => false,
    };

    // Power-of-two dip: D at the full power-of-two size is below its value
    // at the nearest smaller measured size.
    let dissemination_power_of_two_dip = if (last as usize).is_power_of_two() && xs.len() >= 2 {
        let prev = xs[xs.len() - 2];
        match (m("D", last), m("D", prev)) {
            (Some(at), Some(before)) => Some(at < before),
            _ => None,
        }
    } else {
        None
    };

    let mut worst_abs_error = 0.0f64;
    for alg in Algorithm::PAPER_SET {
        let tag = alg.tag();
        for &x in &xs {
            if let (Some(a), Some(b)) = (m(&tag, x), p(&tag, x)) {
                worst_abs_error = worst_abs_error.max((a - b).abs());
            }
        }
    }

    ValidationChecks {
        linear_slowest_at_scale,
        ranking_agrees_at_scale,
        dissemination_power_of_two_dip,
        worst_abs_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_topo::machine::MachineSpec;

    /// A small end-to-end validation run on a 2-node machine: exercises
    /// profiling, prediction and measurement together.
    #[test]
    fn small_validation_run_has_paper_shape() {
        let mut ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(2));
        let sweep = [4usize, 8, 12, 16];
        let fig = run_validation(&mut ctx, &sweep, "mini cluster");
        // All curves fully populated.
        for g in [&fig.predicted, &fig.measured] {
            for s in &g.series {
                assert_eq!(s.points.len(), sweep.len(), "{}", s.label);
            }
        }
        let checks = validation_checks(&fig);
        assert!(checks.linear_slowest_at_scale, "{fig:?}");
        assert!(checks.ranking_agrees_at_scale);
        // The dip check is computed (last size is a power of two), but on
        // a 2-node machine every even dissemination offset is node-local,
        // so the paper's 8-node dip phenomenon is absent here — only its
        // presence in the full cluster A run (Fig. 5) is reported, in the
        // `summary.md` that `hbar figures` writes.
        assert!(checks.dissemination_power_of_two_dip.is_some());
        // Exact context: model error stays well under a barrier time.
        let scale = fig.measured.get("L").unwrap().y_max();
        assert!(
            checks.worst_abs_error < scale,
            "error {} vs scale {scale}",
            checks.worst_abs_error
        );
    }

    #[test]
    fn per_algorithm_regroup_preserves_points() {
        let mut ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(1));
        let fig = run_validation(&mut ctx, &[4, 8], "one node");
        let groups = fig.per_algorithm();
        assert_eq!(groups.len(), 3);
        for g in &groups {
            assert_eq!(g.series.len(), 2);
            assert_eq!(g.series[0].label, "Measured");
            assert_eq!(g.series[1].label, "Predicted");
            assert_eq!(g.series[0].points.len(), 2);
        }
    }
}
