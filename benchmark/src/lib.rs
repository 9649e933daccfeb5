//! The repo's pipeline benchmark: four workloads, end-to-end metrics from
//! an untraced run, per-layer metrics from a traced one. README.md has
//! the why; `../BENCHMARK.json` declares names, directions and bounds.
//!
//! The program under test is reached through its public functions only,
//! and the yardstick — statistics, span recorder, input generators — lives
//! in this crate, so no later change to a crate under `../crates` moves it.

pub mod catalog;
pub mod checks;
pub mod cold;
pub mod compare;
pub mod inputs;
pub mod procfs;
pub mod report;
pub mod retune;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;

use run::{Ctx, Outcome};

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "pipeline_p1024" => cold::run(&cold::ColdSpec::pipeline(ctx.smoke), ctx),
        "scale_p8192" => cold::run(&cold::ColdSpec::scale(ctx.smoke), ctx),
        "retune_p1024" => retune::run(ctx),
        "serve_zipf" => serve::run(ctx),
        _ => return None,
    })
}
