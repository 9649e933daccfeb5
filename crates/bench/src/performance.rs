//! Figure 11: performance of the generated hybrid barriers against the
//! topology-neutral MPI baseline.
//!
//! The paper's `MPI_Barrier` baseline is OpenMPI's built-in, which "the
//! publicly available OpenMPI library source code verifies … implements a
//! tree barrier" over rank order — i.e. our [`Algorithm::Tree`] schedule
//! executed with no topology awareness.

use crate::context::ExperimentContext;
use crate::data::{Series, SeriesGroup};
use hbar_core::algorithms::Algorithm;
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};

/// The data behind one panel of Fig. 11, plus tuning provenance.
#[derive(Clone, Debug)]
pub struct PerformanceFigure {
    /// Two series: "MPI" (neutral tree) and "Hybrid" (tuned).
    pub group: SeriesGroup,
    /// Root-level algorithm chosen by the tuner per process count.
    pub root_choice: Vec<(usize, String)>,
}

/// Runs the Fig. 11 experiment: for each process count, tune a hybrid
/// barrier from the measured profile and race it against the neutral tree.
pub fn run_performance(
    ctx: &mut ExperimentContext,
    sweep: &[usize],
    tuner: &TunerConfig,
    title: &str,
) -> PerformanceFigure {
    let mut mpi = Series::new("MPI");
    let mut hybrid = Series::new("Hybrid");
    let mut root_choice = Vec::new();
    for &p in sweep {
        let profile = ctx.profile_for(p);
        let members: Vec<usize> = (0..p).collect();
        let neutral = Algorithm::Tree.full_schedule(p, &members);
        mpi.push(p as f64, ctx.measure_barrier(&neutral, p));
        let tuned = tune_hybrid_costs(&profile.cost, &members, tuner);
        hybrid.push(p as f64, ctx.measure_barrier(&tuned.schedule, p));
        root_choice.push((
            p,
            tuned
                .root_algorithm()
                .map(|a| a.to_string())
                .unwrap_or_else(|| "none".into()),
        ));
    }
    let mut group = SeriesGroup::new(title.to_string());
    group.series.push(mpi);
    group.series.push(hybrid);
    PerformanceFigure { group, root_choice }
}

/// The paper's headline claims about Fig. 11, as checkable booleans.
#[derive(Clone, Debug)]
pub struct PerformanceChecks {
    /// "Generated barrier performance is similar to the MPI barrier at
    /// worst": hybrid never exceeds the baseline by more than `slack`
    /// (fractional; noise allowance).
    pub never_significantly_worse: bool,
    /// "significantly improved in most cases": hybrid is faster at a
    /// strict majority of multi-node sizes.
    pub faster_at_most_multinode_sizes: bool,
    /// Speedup at the largest size (MPI time / hybrid time) — the paper
    /// sees ≈2× on the larger system.
    pub speedup_at_max: f64,
}

/// Evaluates the Fig. 11 claims. `cores_per_node` identifies multi-node
/// sizes; `slack` is the tolerated fractional regression (e.g. 0.15).
pub fn performance_checks(
    fig: &PerformanceFigure,
    cores_per_node: usize,
    slack: f64,
) -> PerformanceChecks {
    let xs = fig.group.xs();
    let mpi = fig.group.get("MPI").expect("MPI series");
    let hyb = fig.group.get("Hybrid").expect("Hybrid series");
    let mut worse = false;
    let mut multinode = 0usize;
    let mut faster = 0usize;
    for &x in &xs {
        let (Some(m), Some(h)) = (mpi.y_at(x), hyb.y_at(x)) else {
            continue;
        };
        if h > m * (1.0 + slack) {
            worse = true;
        }
        if x as usize > cores_per_node {
            multinode += 1;
            if h < m {
                faster += 1;
            }
        }
    }
    let last = *xs.last().expect("non-empty sweep");
    let speedup_at_max = match (mpi.y_at(last), hyb.y_at(last)) {
        (Some(m), Some(h)) if h > 0.0 => m / h,
        _ => f64::NAN,
    };
    PerformanceChecks {
        never_significantly_worse: !worse,
        faster_at_most_multinode_sizes: multinode > 0 && faster * 2 > multinode,
        speedup_at_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_topo::machine::MachineSpec;

    #[test]
    fn hybrid_wins_on_a_two_node_machine() {
        let mut ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(2));
        let sweep = [8usize, 12, 16];
        let fig = run_performance(&mut ctx, &sweep, &TunerConfig::default(), "mini fig 11");
        let checks = performance_checks(&fig, ctx.cores_per_node(), 0.15);
        assert!(checks.never_significantly_worse, "{fig:?}");
        assert!(checks.faster_at_most_multinode_sizes, "{fig:?}");
        assert!(checks.speedup_at_max > 1.0, "{}", checks.speedup_at_max);
    }

    #[test]
    fn root_choices_are_recorded_per_size() {
        let mut ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(2));
        let fig = run_performance(&mut ctx, &[4, 16], &TunerConfig::default(), "choices");
        assert_eq!(fig.root_choice.len(), 2);
        assert_eq!(fig.root_choice[0].0, 4);
        // 16 ranks on 2 nodes: the top level is a uniform pair of slow
        // links — dissemination is the expected greedy winner.
        assert_eq!(fig.root_choice[1].1, "dissemination");
    }
}
