//! One run of the harness: the figures asked for, into one directory.
//!
//! [`run_figures`] is what `hbar figures` runs. It writes gnuplot-style
//! `.dat` files, `.svg` renderings and text transcripts, plus a
//! `summary.md` that checks the paper's claims against this run. Tables
//! go to stdout as they are made, progress to stderr.

use crate::construction::run_construction;
use crate::context::ExperimentContext;
use crate::data::SeriesGroup;
use crate::delay::run_delay_checks;
use crate::heatmap::run_heatmap;
use crate::performance::{performance_checks, run_performance};
use crate::validation::{run_validation, validation_checks};
use hbar_core::compose::TunerConfig;
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::NoiseModel;
use hbar_topo::machine::MachineSpec;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every figure a run can make, in the order it makes them.
pub const FIGURES: [&str; 9] = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "delaycheck",
    "ablation",
];

/// `outcome` of writing `path`, its error turned into a line naming `path`.
fn wrote(path: &Path, outcome: std::io::Result<()>) -> Result<(), String> {
    outcome.map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes `text` to `out/name`.
fn write_text(out: &Path, name: &str, text: &str) -> Result<(), String> {
    let path = out.join(name);
    wrote(&path, std::fs::write(&path, text))
}

/// Writes `group` to `out/name.dat` and `out/name.svg`.
fn write_group(out: &Path, name: &str, group: &SeriesGroup) -> Result<(), String> {
    let dat = out.join(format!("{name}.dat"));
    let svg = out.join(format!("{name}.svg"));
    wrote(&dat, group.write_dat(&dat))?;
    wrote(&svg, crate::plot::write_svg(group, &svg))
}

/// Regenerates the figures named in `which` (entries of [`FIGURES`];
/// others are ignored) into `out`, sweeping every `step`-th process
/// count. `quick` swaps the paper's benchmark schedule for a short one.
///
/// `out` is made before anything runs, so an unusable directory is an
/// error with nothing printed. An error names the file it could not
/// write.
pub fn run_figures(which: &[&str], quick: bool, step: usize, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let t0 = Instant::now();
    let wants = |name: &str| which.contains(&name);
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "# Experiment run summary\n\nmode: {} | sweep step: {step} | generated by `hbar figures`\n",
        if quick { "quick" } else { "full" },
    );

    let mut ctx_a = ExperimentContext::cluster_a(quick);
    let mut ctx_b = ExperimentContext::cluster_b(quick);
    let validate = |wanted: bool, ctx: &mut ExperimentContext, name: &str, title: &str| {
        wanted.then(|| {
            let t = Instant::now();
            let sweep = ctx.sweep(step);
            let fig = run_validation(ctx, &sweep, title);
            eprintln!("[{name}] validation done in {:.1?}", t.elapsed());
            fig
        })
    };
    let val_a = validate(
        wants("fig5") || wants("fig7"),
        &mut ctx_a,
        "fig5",
        "Validation on 8 Nodes of Dual Quad-cores",
    );
    let val_b = validate(
        wants("fig6") || wants("fig8"),
        &mut ctx_b,
        "fig6",
        "Validation on 10 Nodes of Dual Hex-cores",
    );

    for (name, fig, label) in [
        ("fig5", &val_a, "cluster A (8 x 2x4)"),
        ("fig6", &val_b, "cluster B (10 x 2x6)"),
    ] {
        let Some(fig) = fig.as_ref().filter(|_| wants(name)) else {
            continue;
        };
        write_group(out, &format!("{name}_predicted"), &fig.predicted)?;
        write_group(out, &format!("{name}_measured"), &fig.measured)?;
        println!("{}", fig.predicted.render_table());
        println!("{}", fig.measured.render_table());
        let checks = validation_checks(fig);
        let _ = writeln!(
            summary,
            "## {name} — model validation, {label}\n\
             - linear slowest at max size: **{}**\n\
             - predicted/measured ranking agrees at max size: **{}**\n\
             - dissemination power-of-two dip at max size: **{:?}**\n\
             - worst |prediction error|: **{:.1} µs** (paper reports ≈200 µs)\n",
            checks.linear_slowest_at_scale,
            checks.ranking_agrees_at_scale,
            checks.dissemination_power_of_two_dip,
            checks.worst_abs_error * 1e6
        );
    }

    for (name, fig, which) in [("fig7", &val_a, "A"), ("fig8", &val_b, "B")] {
        let Some(fig) = fig.as_ref().filter(|_| wants(name)) else {
            continue;
        };
        for (panel, group) in ('a'..).zip(fig.per_algorithm()) {
            write_group(out, &format!("{name}_panel{panel}"), &group)?;
            println!("{}", group.render_table());
        }
        let _ = writeln!(
            summary,
            "## {name} — per-algorithm overlays, cluster {which}: panels written\n"
        );
    }

    if wants("fig9") {
        let t = Instant::now();
        let cfg = if quick {
            ProfilingConfig::fast()
        } else {
            ProfilingConfig::default()
        };
        let fig = run_heatmap(NoiseModel::realistic(0x919), &cfg);
        println!("{}", fig.rendering);
        write_text(out, "fig9_heatmap.txt", &fig.rendering)?;
        let _ = writeln!(
            summary,
            "## fig9 — L matrix of one dual quad-core node\n\
             - on-chip mean L: **{:.2e} s**, off-chip mean L: **{:.2e} s**\n\
             - off/on ratio: **{:.2}** (paper: ≈4)\n",
            fig.l_blocks.on,
            fig.l_blocks.off,
            fig.l_blocks.ratio()
        );
        eprintln!("[fig9] heatmap done in {:.1?}", t.elapsed());
    }

    if wants("fig10") {
        let t = Instant::now();
        let fig = run_construction(quick);
        println!("{}", fig.walkthrough);
        write_text(out, "fig10_construction.txt", &fig.walkthrough)?;
        let root = fig
            .tuned
            .root_algorithm()
            .map(|a| a.to_string())
            .unwrap_or_default();
        let _ = writeln!(
            summary,
            "## fig10 — hybrid construction, 3 nodes / 22 processes\n\
             - node clusters found: **{}** (paper: 3)\n\
             - root algorithm: **{root}**\n\
             - schedule valid barrier: **{}**\n",
            fig.tuned.tree.children.len(),
            fig.tuned.schedule.is_barrier()
        );
        eprintln!("[fig10] construction done in {:.1?}", t.elapsed());
    }

    if wants("fig11") {
        for (panel, ctx, label) in [
            ("a", &mut ctx_a, "Performance, 2x4-core nodes"),
            ("b", &mut ctx_b, "Performance, 2x6-core nodes"),
        ] {
            let t = Instant::now();
            let sweep = ctx.sweep(step);
            let fig = run_performance(ctx, &sweep, &TunerConfig::default(), label);
            write_group(out, &format!("fig11{panel}"), &fig.group)?;
            println!("{}", fig.group.render_table());
            let checks = performance_checks(&fig, ctx.cores_per_node(), 0.15);
            // Where does the tuner's root choice change?
            let mut switches = String::new();
            let mut last_choice = String::new();
            for (p, choice) in &fig.root_choice {
                if *choice != last_choice {
                    let _ = write!(switches, "{p}:{choice} ");
                    last_choice = choice.clone();
                }
            }
            let _ = writeln!(
                summary,
                "## fig11{panel} — hybrid vs MPI, {label}\n\
                 - hybrid never significantly worse than MPI: **{}**\n\
                 - hybrid faster at most multi-node sizes: **{}**\n\
                 - speedup at max size: **{:.2}x** (paper: ≈2x on cluster B)\n\
                 - root algorithm switches (P:choice): {switches}\n",
                checks.never_significantly_worse,
                checks.faster_at_most_multinode_sizes,
                checks.speedup_at_max
            );
            eprintln!("[fig11{panel}] done in {:.1?}", t.elapsed());
        }
    }

    if wants("delaycheck") {
        let t = Instant::now();
        let sizes: &[usize] = if quick { &[5, 16] } else { &[5, 16, 22, 40] };
        let verdicts = run_delay_checks(&MachineSpec::dual_quad_cluster(8), sizes, 50_000_000);
        for v in &verdicts {
            let verdict = if v.passed { "ok" } else { "FAIL" };
            println!("delaycheck {} p={}: {verdict}", v.label, v.p);
        }
        let _ = writeln!(
            summary,
            "## delaycheck — §VI staggered-delay validation\n- all algorithms synchronized at sizes {sizes:?}: **{}**\n",
            verdicts.iter().all(|v| v.passed)
        );
        eprintln!("[delaycheck] done in {:.1?}", t.elapsed());
    }

    if wants("ablation") {
        let t = Instant::now();
        let p = ctx_a.max_p();
        let rows = crate::ablation::run_ablation(&mut ctx_a, p);
        let table = crate::ablation::render_ablation(&rows);
        println!("ablation at P={p} on cluster A:\n{table}");
        write_text(out, "ablation.txt", &table)?;
        let greedy = rows.iter().find(|r| r.label == "greedy (paper set)");
        let best_forced = (rows.iter())
            .filter(|r| r.label.starts_with("forced"))
            .map(|r| r.measured)
            .fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            summary,
            "## ablation — tuner design choices at P={p}, cluster A\n\
             - greedy measured: **{:.1} µs**; best forced single algorithm: **{:.1} µs**\n\
             - full table in `ablation.txt`\n",
            greedy.map_or(f64::NAN, |r| r.measured) * 1e6,
            best_forced * 1e6
        );
        eprintln!("[ablation] done in {:.1?}", t.elapsed());
    }

    let _ = writeln!(summary, "total run time: {:.1?}", t0.elapsed());
    write_text(out, "summary.md", &summary)?;
    eprintln!("summary written to {}", out.join("summary.md").display());
    print!("{summary}");
    Ok(())
}
