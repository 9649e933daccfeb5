//! `hbar` — command-line front end to the barrier-synthesis pipeline.
//!
//! `hbar help` prints every command with its flags. That text is
//! generated from [`COMMANDS`], the table the parser itself works from,
//! so there is no second list to keep in step.
//!
//! `hbar serve` is the tuning daemon (sharded schedule cache, request
//! coalescing, bounded tuner pool); `hbar tune-client` is its load
//! generator and correctness checker — `--check all` asserts every
//! served schedule bit-identical to a local tune.
//!
//! Machines are `NODESxSOCKETSxCORES` (e.g. `8x2x4`) or the presets
//! `cluster-a` / `cluster-b`; mappings are `rr` (round-robin) or `block`.
//!
//! `hbar profile` makes three independent choices, all feeding the one
//! profiling sweep. The **sweep** measures every pair, as the paper's
//! §IV-A does, unless `--clustered` switches it to one representative
//! benchmark per pair-feature equivalence class plus validation probes.
//! The **executor** runs the measurements on local threads, or shards
//! them across `hbar profile-worker` TCP processes with `--workers`
//! (falling back to local execution if the fleet dies). The **scatter**
//! writes dense matrices, or with `--compressed` runs the out-of-core
//! class-table scatter: tiles staged under `--mem-budget` bytes (default
//! unbounded) and spilled to a scratch directory beyond it, and the
//! profile written *compact* — the class-compressed model itself
//! (`{machine, mapping, p, model}`, about 10 MB at P = 8192 where the
//! dense document holds two 67 M-entry matrices). An exhaustive sweep
//! has a class per pair, which the model holds up to P ≈ 361: larger
//! compact profiles want `--clustered`. `tune`, `predict` and `simulate`
//! read either form and give the same answers from both; `heatmap` and
//! `search` work on matrices and want the dense one.

use hbarrier::core::codegen::{c_source, compile_schedule, rust_source};
use hbarrier::core::compose::{tune_hybrid_costs, TunerConfig};
use hbarrier::core::cost::{CostEvaluator, CostParams};
use hbarrier::core::schedule::BarrierSchedule;
use hbarrier::core::verify;
use hbarrier::prelude::*;
use hbarrier::simnet::barrier::measure_schedule;
use hbarrier::simnet::distrib::{
    serve_worker, shutdown_worker, FleetExecutor, FleetOptions, WorkerFault,
};
use hbarrier::simnet::profiling::ProfilingConfig;
use hbarrier::simnet::{
    measure_profile_compressed, measure_profile_decomposed, DescriptorExecutor, LocalExecutor,
    NoiseModel, SpillConfig, SweepConfig, SweepReport,
};
use hbarrier::topo::heatmap::render_labelled;
use hbarrier::topo::profile::{CompactProfile, StoredProfile};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One command: its handler and the flags it takes. This table is all
/// the parser knows: [`parse_flags`] rejects a flag that is not listed
/// for the command, and [`usage`] prints the ones that are.
struct Command {
    name: &'static str,
    run: fn(&Flags) -> Result<(), String>,
    /// Flags that take a value: `(name, placeholder, required)`.
    values: &'static [(&'static str, &'static str, bool)],
    /// Flags that take none.
    switches: &'static [&'static str],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "profile",
        run: cmd_profile,
        values: &[
            ("machine", "NxSxC|cluster-a|cluster-b", true),
            ("out", "FILE", true),
            ("mapping", "rr|block", false),
            ("ranks", "N", false),
            ("seed", "N", false),
            ("probes", "N", false),
            ("workers", "HOST:PORT,...", false),
            ("mem-budget", "BYTES", false),
        ],
        switches: &[
            "fast",
            "exact-machine",
            "clustered",
            "stop-workers",
            "compressed",
        ],
    },
    Command {
        name: "profile-worker",
        run: cmd_profile_worker,
        values: &[("listen", "HOST:PORT", true)],
        switches: &[],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        values: &[
            ("listen", "HOST:PORT", true),
            ("shards", "N", false),
            ("cache-cap", "N", false),
            ("cache-bytes", "N", false),
            ("workers", "N", false),
        ],
        switches: &[],
    },
    Command {
        name: "tune-client",
        run: cmd_tune_client,
        values: &[
            ("connect", "HOST:PORT", true),
            ("count", "N", false),
            ("requests", "N", false),
            ("seed", "N", false),
            ("zipf", "S", false),
            ("check", "all|sample|none", false),
        ],
        switches: &["stats", "shutdown"],
    },
    Command {
        name: "tune",
        run: cmd_tune,
        values: &[
            ("profile", "FILE", true),
            ("out", "FILE", true),
            ("sparseness", "F", false),
        ],
        switches: &["extended", "exact-scoring"],
    },
    Command {
        name: "predict",
        run: cmd_predict,
        values: &[("profile", "FILE", true), ("schedule", "FILE", true)],
        switches: &[],
    },
    Command {
        name: "verify",
        run: cmd_verify,
        values: &[("schedule", "FILE", true)],
        switches: &[],
    },
    Command {
        name: "simulate",
        run: cmd_simulate,
        values: &[
            ("profile", "FILE", true),
            ("schedule", "FILE", true),
            ("reps", "N", false),
            ("seed", "N", false),
        ],
        switches: &[],
    },
    Command {
        name: "codegen",
        run: cmd_codegen,
        values: &[
            ("schedule", "FILE", true),
            ("lang", "c|rust", false),
            ("name", "NAME", false),
        ],
        switches: &[],
    },
    Command {
        name: "heatmap",
        run: cmd_heatmap,
        values: &[("profile", "FILE", true), ("matrix", "l|o", false)],
        switches: &[],
    },
    Command {
        name: "search",
        run: cmd_search,
        values: &[
            ("profile", "FILE", true),
            ("out", "FILE", true),
            ("max-stages", "N", false),
            ("max-expansions", "N", false),
        ],
        switches: &[],
    },
];

fn run(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err(usage());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(format!("unknown command `{name}`\n{}", usage()));
    };
    (cmd.run)(&parse_flags(cmd, &args[1..])?)
}

fn usage() -> String {
    let mut text = "usage: hbar <command> [--flag value]...".to_string();
    for cmd in COMMANDS {
        text += &format!("\n  hbar {}", cmd.name);
        for &(flag, placeholder, required) in cmd.values {
            text += &if required {
                format!(" --{flag} {placeholder}")
            } else {
                format!(" [--{flag} {placeholder}]")
            };
        }
        for flag in cmd.switches {
            text += &format!(" [--{flag}]");
        }
    }
    text
}

type Flags = HashMap<String, String>;

fn parse_flags(cmd: &Command, args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{a}`"));
        };
        // Switches take no value; value flags consume the next arg.
        let value = if cmd.switches.contains(&name) {
            "true"
        } else if cmd.values.iter().any(|&(flag, _, _)| flag == name) {
            it.next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?
        } else {
            return Err(format!("unknown flag --{name} for `{}`", cmd.name));
        };
        flags.insert(name.to_string(), value.to_string());
    }
    Ok(flags)
}

fn req<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn parse_machine(spec: &str) -> Result<MachineSpec, String> {
    match spec {
        "cluster-a" => Ok(MachineSpec::dual_quad_cluster(8)),
        "cluster-b" => Ok(MachineSpec::dual_hex_cluster(10)),
        other => {
            let parts: Vec<usize> = other
                .split('x')
                .map(|v| v.parse().map_err(|_| format!("bad machine spec `{other}`")))
                .collect::<Result<_, _>>()?;
            if parts.len() != 3 || parts.contains(&0) {
                return Err(format!("machine spec must be NxSxC, got `{other}`"));
            }
            Ok(MachineSpec::new(parts[0], parts[1], parts[2]))
        }
    }
}

fn parse_mapping(spec: &str) -> Result<RankMapping, String> {
    match spec {
        "rr" | "round-robin" => Ok(RankMapping::RoundRobin),
        "block" => Ok(RankMapping::Block),
        other => Err(format!("mapping must be rr|block, got `{other}`")),
    }
}

/// The profile file of either form: dense matrices or a compact model.
fn load_profile(flags: &Flags) -> Result<StoredProfile, String> {
    let path = req(flags, "profile")?;
    StoredProfile::load(Path::new(path)).map_err(|e| format!("cannot load profile {path}: {e}"))
}

/// For the commands that work on the matrices themselves.
fn load_dense_profile(flags: &Flags, command: &str) -> Result<TopologyProfile, String> {
    match load_profile(flags)? {
        StoredProfile::Dense(profile) => Ok(profile),
        StoredProfile::Compact(_) => Err(format!(
            "`{command}` needs a dense profile; {} is a compact one (profile without --compressed)",
            req(flags, "profile")?
        )),
    }
}

fn load_schedule(flags: &Flags) -> Result<BarrierSchedule, String> {
    let path = req(flags, "schedule")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse schedule {path}: {e}"))
}

fn cmd_profile(flags: &Flags) -> Result<(), String> {
    let machine = parse_machine(req(flags, "machine")?)?;
    let mapping = parse_mapping(flags.get("mapping").map(String::as_str).unwrap_or("rr"))?;
    let p: usize = match flags.get("ranks") {
        Some(v) => v.parse().map_err(|_| "bad --ranks".to_string())?,
        None => machine.total_cores(),
    };
    let out = req(flags, "out")?;
    let (profile, summary) = if flags.contains_key("exact-machine") {
        // Closed-form noise-free profile (no benchmarking).
        let profile = TopologyProfile::from_ground_truth_for(&machine, &mapping, p);
        let summary = format!("{} pairwise estimates", p * (p - 1) / 2);
        (StoredProfile::Dense(profile), summary)
    } else {
        let (profile, report) = sweep_profile(flags, &machine, &mapping, p)?;
        let summary = format!(
            "{} classes, {} measurements, {:.0}x fewer than exhaustive",
            report.pair_classes + report.diag_classes,
            report.measurements,
            report.reduction_factor(p)
        );
        (profile, summary)
    };
    profile
        .save(Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "profiled {} ranks on {} ({summary}) -> {out}",
        p, machine.name
    );
    Ok(())
}

/// The measured profile, from three independent choices: the sweep (the
/// exhaustive `SweepConfig::exact` unless `--clustered`), the executor
/// (local threads, or the `--workers` fleet) and the scatter (dense
/// matrices, or the `--compressed` model).
fn sweep_profile(
    flags: &Flags,
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
) -> Result<(StoredProfile, SweepReport), String> {
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|_| "bad --seed".to_string()))
        .transpose()?
        .unwrap_or(1);
    let noise = NoiseModel::realistic(seed);
    let profiling = if flags.contains_key("fast") {
        ProfilingConfig::fast()
    } else {
        ProfilingConfig::default()
    };
    let mut sweep_cfg = if flags.contains_key("clustered") {
        SweepConfig {
            profiling,
            ..SweepConfig::default()
        }
    } else {
        SweepConfig::exact(profiling)
    };
    if let Some(v) = flags.get("probes") {
        sweep_cfg.probes_per_class = v.parse().map_err(|_| "bad --probes".to_string())?;
    }

    let addrs: Vec<String> = (flags.get("workers").into_iter())
        .flat_map(|list| list.split(','))
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if flags.contains_key("workers") && addrs.is_empty() {
        return Err("--workers needs at least one HOST:PORT".to_string());
    }
    let schedule = sweep_cfg.profiling.clone();
    let mut executor: Box<dyn DescriptorExecutor> = if addrs.is_empty() {
        Box::new(LocalExecutor::new(machine.clone(), noise, schedule))
    } else {
        let opts = FleetOptions::default();
        let fleet = FleetExecutor::for_sweep(addrs.clone(), machine.clone(), noise, schedule, opts);
        Box::new(fleet)
    };

    let measured = if flags.contains_key("compressed") {
        let dir = std::env::temp_dir().join(format!("hbar-profile-spill-{}", std::process::id()));
        let spill = match flags.get("mem-budget") {
            Some(v) => {
                let bytes: usize = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| "bad --mem-budget".to_string())?;
                SpillConfig::budgeted(dir, bytes)
            }
            None => SpillConfig::in_memory(dir),
        };
        measure_profile_compressed(machine, mapping, p, noise, &sweep_cfg, &spill, &mut *executor)
            .map(|(model, report, spilled)| {
                println!(
                    "scatter: {} classes over {} kinds of rank in {} B ({} of {} tiles spilled, {} B to disk)",
                    model.classes(),
                    model.class_map().kinds(),
                    model.heap_bytes(),
                    spilled.spilled_tiles,
                    spilled.tiles,
                    spilled.spill_bytes
                );
                let (machine, mapping) = (machine.clone(), mapping.clone());
                let compact = CompactProfile { machine, mapping, p, model };
                (StoredProfile::Compact(compact), report)
            })
    } else {
        measure_profile_decomposed(machine, mapping, p, noise, &sweep_cfg, &mut *executor)
            .map(|(profile, report)| (StoredProfile::Dense(profile), report))
    };
    if flags.contains_key("stop-workers") {
        for a in &addrs {
            if let Err(e) = shutdown_worker(a.as_str()) {
                eprintln!("warning: cannot stop worker {a}: {e}");
            }
        }
    }
    measured.map_err(|e| format!("profiling sweep failed: {e}"))
}

fn cmd_profile_worker(flags: &Flags) -> Result<(), String> {
    let listen = req(flags, "listen")?;
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    println!("profile worker listening on {local}");
    serve_worker(listener, WorkerFault::None).map_err(|e| format!("worker failed: {e}"))
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use hbarrier::serve::{serve, ServeConfig};
    let listen = req(flags, "listen")?;
    let mut cfg = ServeConfig::default();
    let parse_num = |flags: &Flags, name: &str, into: &mut usize| -> Result<(), String> {
        if let Some(v) = flags.get(name) {
            *into = v
                .parse()
                .ok()
                .filter(|&n: &usize| n > 0)
                .ok_or_else(|| format!("bad --{name}"))?;
        }
        Ok(())
    };
    parse_num(flags, "shards", &mut cfg.cache.shards)?;
    parse_num(flags, "cache-cap", &mut cfg.cache.capacity)?;
    parse_num(flags, "cache-bytes", &mut cfg.cache.bytes_budget)?;
    parse_num(flags, "workers", &mut cfg.workers)?;
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    println!(
        "serve listening on {local} ({} shards, {} entries / {} bytes cache, {} workers)",
        cfg.cache.shards, cfg.cache.capacity, cfg.cache.bytes_budget, cfg.workers
    );
    // Scripted callers (CI smoke, tests) parse the bound address from a
    // pipe, so it must not sit in a block buffer.
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    serve(&listener, &cfg).map_err(|e| format!("serve failed: {e}"))
}

fn cmd_tune_client(flags: &Flags) -> Result<(), String> {
    use hbarrier::core::compose::tune_hybrid_costs;
    use hbarrier::serve::workload::{synthetic_topologies, SplitMix64, ZipfSampler};
    use hbarrier::serve::{shutdown_server, TuneClient, TuneRequest};

    let addr = req(flags, "connect")?;
    let count: usize = flags
        .get("count")
        .map(|v| v.parse().map_err(|_| "bad --count".to_string()))
        .transpose()?
        .unwrap_or(64);
    let requests: usize = flags
        .get("requests")
        .map(|v| v.parse().map_err(|_| "bad --requests".to_string()))
        .transpose()?
        .unwrap_or(count * 4);
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|_| "bad --seed".to_string()))
        .transpose()?
        .unwrap_or(1);
    let zipf_s: f64 = flags
        .get("zipf")
        .map(|v| v.parse().map_err(|_| "bad --zipf".to_string()))
        .transpose()?
        .unwrap_or(1.0);
    let check = flags.get("check").map(String::as_str).unwrap_or("sample");
    let check_every = match check {
        "all" => 1,
        "sample" => 16,
        "none" => 0,
        other => return Err(format!("--check must be all|sample|none, got `{other}`")),
    };

    let topologies = synthetic_topologies(count, seed);
    let zipf = ZipfSampler::new(count, zipf_s);
    let mut rng = SplitMix64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    let mut client =
        TuneClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut local_cache: HashMap<usize, String> = HashMap::new();
    let (mut hits, mut checked) = (0u64, 0u64);
    let started = std::time::Instant::now();
    for n in 0..requests {
        let k = zipf.sample(&mut rng);
        let req = TuneRequest::new(n as u64, topologies[k].clone());
        let resp = client
            .request(&req)
            .map_err(|e| format!("request {n} failed: {e}"))?;
        if resp.cache_hit {
            hits += 1;
        }
        if check_every > 0 && n % check_every == 0 {
            let expected = local_cache.entry(k).or_insert_with(|| {
                let members: Vec<usize> = (0..topologies[k].p()).collect();
                let tuned = tune_hybrid_costs(&topologies[k], &members, &req.tuner_config());
                serde_json::to_string(&tuned.schedule).expect("schedule serializes")
            });
            if resp.schedule_json != *expected {
                return Err(format!(
                    "PARITY FAILURE: request {n} (topology {k}) served a schedule \
                     that differs from the local tune"
                ));
            }
            checked += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "{requests} requests over {count} topologies (zipf {zipf_s}): \
         {hits} hits ({:.1}% hit rate), {checked} parity-checked, \
         {:.0} req/s sync",
        100.0 * hits as f64 / requests.max(1) as f64,
        requests as f64 / elapsed.max(1e-9),
    );
    if flags.contains_key("stats") {
        let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
        println!(
            "server: {} requests, {} hits / {} misses ({} coalesced), {} tunes, \
             {} errors, cache {} entries / {} bytes / {} evictions",
            stats.requests,
            stats.hits,
            stats.misses,
            stats.coalesced,
            stats.tunes,
            stats.errors,
            stats.cache_entries,
            stats.cache_bytes,
            stats.cache_evictions
        );
    }
    client.drain().map_err(|e| format!("drain failed: {e}"))?;
    if flags.contains_key("shutdown") {
        shutdown_server(addr).map_err(|e| format!("shutdown failed: {e}"))?;
        println!("server shut down");
    }
    Ok(())
}

fn cmd_tune(flags: &Flags) -> Result<(), String> {
    let profile = load_profile(flags)?;
    let out = req(flags, "out")?;
    let mut cfg = if flags.contains_key("extended") {
        TunerConfig::extended()
    } else {
        TunerConfig::default()
    };
    if flags.contains_key("exact-scoring") {
        cfg.score_exact = true;
    }
    if let Some(s) = flags.get("sparseness") {
        cfg.sparseness = s.parse().map_err(|_| "bad --sparseness".to_string())?;
    }
    let members: Vec<usize> = (0..profile.p()).collect();
    let tuned = tune_hybrid_costs(profile.cost(), &members, &cfg);
    let json = serde_json::to_string_pretty(&tuned.schedule).expect("schedule serializes");
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "tuned hybrid for {} ranks: {} stages, {} signals, root {:?}, predicted {:.1} us -> {out}",
        profile.p(),
        tuned.schedule.len(),
        tuned.schedule.total_signals(),
        tuned.root_algorithm(),
        tuned.predicted_cost * 1e6
    );
    for c in &tuned.choices {
        println!(
            "  depth {}: {} over {} participants (score {:.1} us)",
            c.depth,
            c.algorithm,
            c.participants.len(),
            c.score * 1e6
        );
    }
    Ok(())
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let profile = load_profile(flags)?;
    let schedule = load_schedule(flags)?;
    if schedule.n() != profile.p() {
        return Err(format!(
            "schedule covers {} ranks but profile has {}",
            schedule.n(),
            profile.p()
        ));
    }
    let pred = CostEvaluator::new(CostParams::default()).predict(&schedule, profile.cost(), None);
    println!("predicted barrier cost: {:.3} us", pred.barrier_cost * 1e6);
    println!(
        "per-stage frontier (us): {:?}",
        pred.stage_frontier
            .iter()
            .map(|v| (v * 1e7).round() / 10.0)
            .collect::<Vec<_>>()
    );
    Ok(())
}

fn cmd_verify(flags: &Flags) -> Result<(), String> {
    let schedule = load_schedule(flags)?;
    if verify::is_barrier(&schedule) {
        println!(
            "valid barrier: {} ranks, {} stages, {} signals",
            schedule.n(),
            schedule.len(),
            schedule.total_signals()
        );
        Ok(())
    } else {
        let missing = verify::missing_knowledge(&schedule);
        Err(format!(
            "NOT a barrier: {} rank pairs never learn of each other (first few: {:?})",
            missing.len(),
            &missing[..missing.len().min(5)]
        ))
    }
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let profile = load_profile(flags)?;
    let schedule = load_schedule(flags)?;
    let reps: usize = flags
        .get("reps")
        .map(|v| v.parse().map_err(|_| "bad --reps".to_string()))
        .transpose()?
        .unwrap_or(25);
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|_| "bad --seed".to_string()))
        .transpose()?
        .unwrap_or(1);
    let cfg = SimConfig {
        machine: profile.machine().clone(),
        mapping: profile.mapping().clone(),
        noise: NoiseModel::realistic(seed),
    };
    let mut world = SimWorld::new(cfg, profile.p());
    let t = measure_schedule(&mut world, &schedule, reps);
    println!(
        "measured barrier cost: {:.3} us (mean of {reps} executions)",
        t * 1e6
    );
    Ok(())
}

fn cmd_codegen(flags: &Flags) -> Result<(), String> {
    let schedule = load_schedule(flags)?;
    let name = flags
        .get("name")
        .map(String::as_str)
        .unwrap_or("generated_barrier");
    let programs = compile_schedule(&schedule).map_err(|e| format!("cannot compile: {e}"))?;
    let lang = flags.get("lang").map(String::as_str).unwrap_or("c");
    let src = match lang {
        "c" => c_source(name, &programs),
        "rust" => rust_source(name, &programs),
        other => return Err(format!("lang must be c|rust, got `{other}`")),
    }
    .map_err(|e| format!("cannot emit {lang}: {e}"))?;
    print!("{src}");
    Ok(())
}

fn cmd_search(flags: &Flags) -> Result<(), String> {
    use hbarrier::core::compose::{search_optimal_barrier, SearchConfig};
    let profile = load_dense_profile(flags, "search")?;
    let out = req(flags, "out")?;
    if profile.p > 6 {
        eprintln!(
            "warning: exhaustive search over {} ranks is exponential; expect long runtimes or truncation",
            profile.p
        );
    }
    let mut cfg = SearchConfig::default();
    if let Some(v) = flags.get("max-stages") {
        cfg.max_stages = v.parse().map_err(|_| "bad --max-stages".to_string())?;
    }
    if let Some(v) = flags.get("max-expansions") {
        cfg.max_expansions = v.parse().map_err(|_| "bad --max-expansions".to_string())?;
    }
    // Seed with the greedy hybrid so the search can only improve on it.
    let members: Vec<usize> = (0..profile.p).collect();
    let greedy = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    let result = search_optimal_barrier(&profile.cost, &cfg, Some(&greedy.schedule))
        .ok_or_else(|| format!("no barrier within --max-stages {}", cfg.max_stages))?;
    let json = serde_json::to_string_pretty(&result.schedule).expect("schedule serializes");
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "search {} after {} states: best {:.2} us ({} stages) vs greedy {:.2} us -> {out}",
        if result.complete {
            "complete"
        } else {
            "TRUNCATED"
        },
        result.expansions,
        result.cost * 1e6,
        result.schedule.len(),
        greedy.predicted_cost * 1e6
    );
    Ok(())
}

fn cmd_heatmap(flags: &Flags) -> Result<(), String> {
    let profile = load_dense_profile(flags, "heatmap")?;
    let which = flags.get("matrix").map(String::as_str).unwrap_or("l");
    let (matrix, label) = match which {
        "l" => (&profile.cost.l, "L matrix (per-message latency)"),
        "o" => (&profile.cost.o, "O matrix (startup cost)"),
        other => return Err(format!("matrix must be l|o, got `{other}`")),
    };
    println!("{}", render_labelled(matrix, label));
    Ok(())
}
