//! ```text
//! hbar-benchmark run --workload <name|all> --seed <u64> [--seconds <s>]
//!                    [--trace <0|1>] [--threads <n>] [--smoke] [--out <file>]
//! hbar-benchmark compare <A.jsonl> <B.jsonl>
//! ```
//! See README.md.

use hbar_benchmark::catalog::WORKLOADS;
use hbar_benchmark::compare::compare;
use hbar_benchmark::procfs::nproc;
use hbar_benchmark::report::{read_declaration, RunRecord};
use hbar_benchmark::run::{out_dir, Ctx, RunDir};
use hbar_benchmark::run_workload;
use hbar_benchmark::spans::Recorder;
use std::io::Write;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: hbar-benchmark run --workload <name|all> --seed <u64> \
[--seconds <s>] [--trace <0|1>] [--threads <n>] [--smoke] [--out <file>]\n       \
hbar-benchmark compare <A.jsonl> <B.jsonl>";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    threads: Option<usize>,
    smoke: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: None,
        trace: false,
        threads: None,
        smoke: false,
        out: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--threads" => {
                let n: usize = value.parse().map_err(|_| bad())?;
                if n == 0 {
                    return Err(bad());
                }
                parsed.threads = Some(n);
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or `all`, got `{}`",
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// `--workload all`: every workload in a process of its own, one after
/// the other, with the arguments this process was given.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut forwarded = args.to_vec();
        if let Some(at) = forwarded.iter().position(|a| a == "--workload") {
            forwarded[at + 1] = name.to_string();
        }
        let status = Command::new(&exe)
            .arg("run")
            .args(forwarded)
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn run(args: &[String]) -> Result<bool, String> {
    let parsed = parse_run_args(args)?;
    if parsed.workload == "all" {
        return run_all(args);
    }
    let seconds = match parsed.seconds {
        Some(s) => s,
        None => read_declaration()?.run_seconds,
    };
    // The program under test reads this once, on its first parallel call;
    // nothing has made one yet.
    let threads = parsed.threads.unwrap_or_else(|| nproc().min(4));
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let dir = RunDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    let rec = Recorder::default();
    let ctx = Ctx {
        seed: parsed.seed,
        seconds,
        trace: parsed.trace,
        smoke: parsed.smoke,
        dir: dir.path(),
        rec: &rec,
    };
    let mut outcome = run_workload(&parsed.workload, &ctx).expect("name was validated");
    if parsed.trace {
        let cpu = hbar_benchmark::procfs::cpu_gauges();
        let m = &mut outcome.metrics;
        m.set("proc.threads", threads as f64);
        m.set("proc.cpu_user_s", cpu.user_s);
        m.set("proc.cpu_sys_s", cpu.sys_s);
        m.set("proc.minflt", cpu.minflt);
        let path = out_dir().join(format!("trace-{}.json", parsed.workload));
        std::fs::write(&path, hbar_benchmark::report::trace_json(&rec.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let record = RunRecord {
        workload: &parsed.workload,
        seed: parsed.seed,
        seconds,
        trace: parsed.trace,
        smoke: parsed.smoke,
        threads,
        outcome: &outcome,
    };
    if let Some(path) = &parsed.out {
        let line = serde_json::to_string(&record.record_value()).expect("a value tree serializes");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    record.print();
    Ok(true)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (report, pass) = compare(&read(a)?, &read(b)?, &read_declaration()?.end_to_end)?;
    print!("{report}");
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((mode, rest)) if mode == "run" => run(rest),
        Some((mode, rest)) if mode == "compare" => compare_files(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
