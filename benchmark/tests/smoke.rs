//! All four workloads at `--smoke` scale: every output check passes, and
//! the deterministic metrics are a function of the seed alone — equal
//! across two runs and across thread counts, different for another seed.

mod common;

use hbar_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn deterministic_metrics_repeat_across_runs_and_thread_counts() {
    for workload in WORKLOADS {
        for (trace, catalog) in [(false, END_TO_END), (true, PER_LAYER)] {
            let first = common::run_smoke(workload, 5, trace, 2);
            let again = common::run_smoke(workload, 5, trace, 2);
            let single = common::run_smoke(workload, 5, trace, 1);
            for d in catalog.iter().filter(|d| d.deterministic) {
                let v = first.metrics[d.name];
                assert_eq!(
                    v.to_bits(),
                    again.metrics[d.name].to_bits(),
                    "{workload}: `{}` differs between two runs",
                    d.name
                );
                assert_eq!(
                    v.to_bits(),
                    single.metrics[d.name].to_bits(),
                    "{workload}: `{}` differs between --threads 2 and 1",
                    d.name
                );
            }
        }
    }
}

#[test]
fn another_seed_gives_other_inputs_and_still_passes() {
    for workload in WORKLOADS {
        let a = common::run_smoke(workload, 5, false, 2);
        let b = common::run_smoke(workload, 6, false, 2);
        assert_ne!(
            a.metrics["barrier_us"].to_bits(),
            b.metrics["barrier_us"].to_bits(),
            "{workload}: the seed does not reach the inputs"
        );
        assert_eq!(b.result.get("correct"), Some(&serde::Value::Bool(true)));
    }
}
