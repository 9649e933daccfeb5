//! `hbar` — command-line front end to the barrier-synthesis pipeline.
//!
//! `hbar help` prints every command with its flags. That text is
//! generated from [`COMMANDS`], the table the parser itself works from,
//! so there is no second list to keep in step. The table also gives each
//! value flag its [`Form`], and the parser checks every value against it
//! before a command runs: a bad value is one `error:` line naming the
//! flag, and nothing has been read, written or bound.
//!
//! `hbar serve` is the tuning daemon (sharded schedule cache, request
//! coalescing, bounded tuner pool); `hbar tune-client` is its load
//! generator and correctness checker — `--check all` asserts every
//! served schedule bit-identical to a local tune.
//!
//! `hbar analyze` runs the static analyzer (DESIGN.md §11) over one
//! schedule file (`--schedule`) or over the algorithm library and both
//! paper clusters' tuned hybrids (`--library`), and exits 1 on any
//! warning or error.
//!
//! `hbar figures` regenerates the paper's figures through `hbar-bench`.
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
//! writes dense matrices, or with `--compressed` writes the profile
//! *compact* — the class-compressed model itself
//! (`{machine, mapping, p, model}`, about 10 MB at P = 8192 where the
//! dense document holds two 67 M-entry matrices). An exhaustive sweep
//! has a class per pair, which the model holds up to P ≈ 361: larger
//! compact profiles want `--clustered`. Every command that reads a
//! profile reads either form and gives the same answers from both.

use hbar_bench::{run_figures, FIGURES};
use hbarrier::core::codegen::{c_source, rust_source};
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
use hbarrier::topo::cost::CostMatrices;
use hbarrier::topo::heatmap::render_labelled;
use hbarrier::topo::profile::{CompactProfile, StoredProfile};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;
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
/// for the command or a value outside its form, and [`usage`] prints the
/// flags that are listed.
struct Command {
    name: &'static str,
    run: fn(&Flags) -> Result<(), String>,
    /// Flags that take a value: `(name, form, required)`.
    values: &'static [(&'static str, Form, bool)],
    /// Flags that take none.
    switches: &'static [&'static str],
}

/// What a value flag accepts. A bound on a number follows from what the
/// number sizes (the comments in [`COMMANDS`] say what).
enum Form {
    /// Any non-empty text (a path, an address, a name), shown as this
    /// placeholder.
    Text(&'static str),
    /// An integer in `lo..=hi`.
    Int(usize, usize),
    /// A finite real between these bounds.
    Real(Bound<f64>, Bound<f64>),
    /// One of these words.
    Word(&'static [&'static str]),
    /// A comma-separated list of these words.
    Words(&'static [&'static str]),
    /// A comma-separated list with at least one entry.
    List(&'static str),
    /// `NxSxC` with fewer than 2³⁰ cores (a simulated rank id is 30
    /// bits), or a preset cluster.
    Machine,
}

use Form::{Int, List, Machine, Real, Text, Word, Words};

/// Any count, or a seed.
const ANY: Form = Int(0, usize::MAX);
const FILE: Form = Text("FILE");
const ADDR: Form = Text("HOST:PORT");

const COMMANDS: &[Command] = &[
    Command {
        name: "profile",
        run: cmd_profile,
        values: &[
            ("machine", Machine, true),
            ("out", FILE, true),
            ("mapping", Word(&["rr", "round-robin", "block"]), false),
            // At most the machine's cores: checked in `cmd_profile`.
            ("ranks", ANY, false),
            ("seed", ANY, false),
            ("probes", ANY, false),
            ("workers", List("HOST:PORT,..."), false),
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
        values: &[("listen", ADDR, true)],
        switches: &[],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        values: &[
            ("listen", ADDR, true),
            // A locked LRU map each; at most `--cache-cap` (`cmd_serve`).
            ("shards", Int(1, 1024), false),
            // Sizes the hash tables made up front: ≈ 50 MB at 2²⁰.
            ("cache-cap", Int(1, 1 << 20), false),
            ("cache-bytes", Int(1, usize::MAX), false),
            // One OS thread each.
            ("workers", Int(1, 256), false),
        ],
        switches: &[],
    },
    Command {
        name: "tune-client",
        run: cmd_tune_client,
        values: &[
            ("connect", ADDR, true),
            // All built before the first request, ≈ 2.5 KB each.
            ("count", Int(1, 1 << 16), false),
            ("requests", ANY, false),
            ("seed", ANY, false),
            ("zipf", Real(Included(0.0), Unbounded), false),
            ("check", Word(&["all", "sample", "none"]), false),
        ],
        switches: &["stats", "shutdown"],
    },
    Command {
        name: "tune",
        run: cmd_tune,
        values: &[
            ("profile", FILE, true),
            ("out", FILE, true),
            ("sparseness", Real(Excluded(0.0), Included(1.0)), false),
        ],
        switches: &["extended"],
    },
    Command {
        name: "predict",
        run: cmd_predict,
        values: &[("profile", FILE, true), ("schedule", FILE, true)],
        switches: &[],
    },
    Command {
        name: "verify",
        run: cmd_verify,
        values: &[("schedule", FILE, true)],
        switches: &[],
    },
    Command {
        name: "simulate",
        run: cmd_simulate,
        values: &[
            ("profile", FILE, true),
            ("schedule", FILE, true),
            // All built up front: ≈ 0.4 GB for a P = 1024 hybrid at 1000.
            ("reps", Int(1, 1000), false),
            ("seed", ANY, false),
        ],
        switches: &[],
    },
    Command {
        name: "codegen",
        run: cmd_codegen,
        values: &[
            ("schedule", FILE, true),
            ("lang", Word(&["c", "rust"]), false),
            ("name", Text("NAME"), false),
        ],
        switches: &[],
    },
    Command {
        name: "heatmap",
        run: cmd_heatmap,
        values: &[
            ("profile", FILE, true),
            ("matrix", Word(&["l", "o"]), false),
        ],
        switches: &[],
    },
    Command {
        name: "analyze",
        run: cmd_analyze,
        values: &[
            ("schedule", FILE, false),
            // Every library algorithm at every size up to it.
            ("max-p", Int(2, 4096), false),
            ("name", Text("NAME"), false),
            ("format", Word(&["text", "json"]), false),
        ],
        switches: &["library", "quick", "strict-modes"],
    },
    Command {
        name: "search",
        run: cmd_search,
        values: &[
            ("profile", FILE, true),
            ("out", FILE, true),
            ("max-stages", ANY, false),
            ("max-expansions", ANY, false),
        ],
        switches: &[],
    },
    Command {
        name: "figures",
        run: cmd_figures,
        values: &[
            ("only", Words(&FIGURES), false),
            // Every step-th process count of a sweep.
            ("step", Int(1, usize::MAX), false),
            ("out", Text("DIR"), false),
        ],
        switches: &["quick"],
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
        for (flag, form, required) in cmd.values {
            let placeholder = form.placeholder();
            text += &if *required {
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

impl Form {
    fn placeholder(&self) -> String {
        match self {
            Text(shown) | List(shown) => shown.to_string(),
            Int(..) => "N".to_string(),
            Real(..) => "F".to_string(),
            Word(words) => words.join("|"),
            Words(words) => words.join("|") + ",...",
            Machine => "NxSxC|cluster-a|cluster-b".to_string(),
        }
    }

    /// What a value of this form must be, for the error line.
    fn describe(&self) -> String {
        match *self {
            Int(lo, usize::MAX) => format!("an integer of at least {lo}"),
            Int(lo, hi) => format!("an integer in [{lo}, {hi}]"),
            Real(lo, hi) => {
                let lo = match lo {
                    Included(x) => format!("[{x}"),
                    Excluded(x) => format!("({x}"),
                    Unbounded => "(-inf".to_string(),
                };
                let hi = match hi {
                    Included(x) => format!("{x}]"),
                    Excluded(x) => format!("{x})"),
                    Unbounded => "inf)".to_string(),
                };
                format!("in {lo}, {hi}")
            }
            Words(words) => format!("a comma-separated list of {}", words.join(", ")),
            Machine => "NxSxC with fewer than 2^30 cores, cluster-a or cluster-b".to_string(),
            _ => self.placeholder(),
        }
    }

    /// Parses `v` into the map of `flags` for this form's type, under
    /// `name`; `None` if `v` is not of this form.
    fn parse<'a>(&self, name: &'a str, v: &'a str, flags: &mut Flags<'a>) -> Option<()> {
        match *self {
            Text(_) => _ = flags.texts.insert(name, v),
            Word(words) => _ = flags.texts.insert(name, words.contains(&v).then_some(v)?),
            Int(lo, hi) => {
                let n = v.parse().ok().filter(|n| (lo..=hi).contains(n))?;
                flags.ints.insert(name, n);
            }
            Real(lo, hi) => {
                let x: f64 = v.parse().ok()?;
                flags
                    .reals
                    .insert(name, (x.is_finite() && (lo, hi).contains(&x)).then_some(x)?);
            }
            Words(words) => {
                let known = v.split(',').all(|w| words.contains(&w));
                _ = flags.texts.insert(name, known.then_some(v)?);
            }
            List(_) => {
                let items = v.split(',').map(str::trim).filter(|s| !s.is_empty());
                let items: Vec<String> = items.map(String::from).collect();
                flags
                    .lists
                    .insert(name, (!items.is_empty()).then_some(items)?);
            }
            Machine => flags.machine = Some(parse_machine(v)?),
        }
        Some(())
    }
}

/// The flags of one command line, each value parsed by its form.
#[derive(Default)]
struct Flags<'a> {
    /// Every flag given, switch or value.
    given: Vec<&'a str>,
    texts: HashMap<&'a str, &'a str>,
    ints: HashMap<&'a str, usize>,
    reals: HashMap<&'a str, f64>,
    lists: HashMap<&'a str, Vec<String>>,
    machine: Option<MachineSpec>,
}

impl Flags<'_> {
    fn has(&self, flag: &str) -> bool {
        self.given.contains(&flag)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.texts.get(name).copied()
    }

    fn req(&self, name: &str) -> Result<&str, String> {
        self.text(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn int(&self, name: &str) -> Option<usize> {
        self.ints.get(name).copied()
    }

    fn real(&self, name: &str) -> Option<f64> {
        self.reals.get(name).copied()
    }
}

fn parse_flags<'a>(cmd: &Command, args: &'a [String]) -> Result<Flags<'a>, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{a}`"));
        };
        // Switches take no value; value flags consume the next arg.
        flags.given.push(name);
        if let Some((_, form, _)) = cmd.values.iter().find(|v| v.0 == name) {
            let value = (it.next())
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            form.parse(name, value, &mut flags)
                .ok_or_else(|| format!("--{name} must be {}, got `{value}`", form.describe()))?;
        } else if !cmd.switches.contains(&name) {
            return Err(format!("unknown flag --{name} for `{}`", cmd.name));
        }
    }
    Ok(flags)
}

fn parse_machine(spec: &str) -> Option<MachineSpec> {
    match spec {
        "cluster-a" => Some(MachineSpec::dual_quad_cluster(8)),
        "cluster-b" => Some(MachineSpec::dual_hex_cluster(10)),
        other => {
            let parts: Vec<usize> = other
                .split('x')
                .map(|v| v.parse().ok())
                .collect::<Option<_>>()?;
            let &[nodes, sockets, cores] = parts.as_slice() else {
                return None;
            };
            let total = nodes.checked_mul(sockets)?.checked_mul(cores)?;
            (1..1 << 30)
                .contains(&total)
                .then(|| MachineSpec::new(nodes, sockets, cores))
        }
    }
}

/// The profile file of either form: dense matrices or a compact model.
fn load_profile(flags: &Flags) -> Result<StoredProfile, String> {
    let path = flags.req("profile")?;
    StoredProfile::load(Path::new(path)).map_err(|e| format!("cannot load profile {path}: {e}"))
}

/// The profile's two matrices, expanded from a compact model if need be.
fn load_matrices(flags: &Flags) -> Result<CostMatrices, String> {
    Ok(match load_profile(flags)? {
        StoredProfile::Dense(profile) => profile.cost,
        StoredProfile::Compact(compact) => compact.model.to_dense(),
    })
}

fn load_schedule(flags: &Flags) -> Result<BarrierSchedule, String> {
    let path = flags.req("schedule")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse schedule {path}: {e}"))
}

fn write_schedule(out: &str, schedule: &BarrierSchedule) -> Result<(), String> {
    let json = serde_json::to_string_pretty(schedule).expect("schedule serializes");
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))
}

/// A profile and a schedule over the same ranks.
fn load_profile_and_schedule(flags: &Flags) -> Result<(StoredProfile, BarrierSchedule), String> {
    let profile = load_profile(flags)?;
    let schedule = load_schedule(flags)?;
    if schedule.n() != profile.p() {
        return Err(format!(
            "schedule covers {} ranks but profile has {}",
            schedule.n(),
            profile.p()
        ));
    }
    Ok((profile, schedule))
}

fn cmd_profile(flags: &Flags) -> Result<(), String> {
    let machine = (flags.machine.as_ref()).ok_or("missing required flag --machine")?;
    let mapping = if flags.text("mapping") == Some("block") {
        RankMapping::Block
    } else {
        RankMapping::RoundRobin
    };
    let cores = machine.total_cores();
    let p = flags.int("ranks").unwrap_or(cores);
    if !(2..=cores).contains(&p) {
        return Err(format!(
            "cannot profile {p} ranks on {}: a profile needs at least 2 and the machine has {cores} cores",
            machine.name
        ));
    }
    // The closed form measures nothing, so no flag that shapes a
    // measurement applies to it.
    let exact = flags.has("exact-machine");
    let shaping = "compressed clustered fast workers stop-workers probes seed";
    if let Some(flag) = shaping.split(' ').find(|f| exact && flags.has(f)) {
        let conflict = "cannot be used with --exact-machine, which measures nothing";
        return Err(format!("--{flag} {conflict}"));
    }
    let out = flags.req("out")?;
    let (profile, summary) = if exact {
        // Closed-form noise-free profile (no benchmarking).
        let profile = TopologyProfile::from_ground_truth_for(machine, &mapping, p);
        let summary = format!("{} pairwise estimates", p * (p - 1) / 2);
        (StoredProfile::Dense(profile), summary)
    } else {
        let (profile, report) = sweep_profile(flags, machine, &mapping, p)?;
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
    let noise = NoiseModel::realistic(flags.int("seed").map_or(1, |n| n as u64));
    let profiling = if flags.has("fast") {
        ProfilingConfig::fast()
    } else {
        ProfilingConfig::default()
    };
    let mut sweep = if flags.has("clustered") {
        SweepConfig {
            profiling,
            ..SweepConfig::default()
        }
    } else {
        SweepConfig::exact(profiling)
    };
    sweep.probes_per_class = flags.int("probes").unwrap_or(sweep.probes_per_class);

    let addrs = flags.lists.get("workers").map_or(&[][..], Vec::as_slice);
    let schedule = sweep.profiling.clone();
    let mut exec: Box<dyn DescriptorExecutor> = if addrs.is_empty() {
        Box::new(LocalExecutor::new(machine.clone(), noise, schedule))
    } else {
        let opts = FleetOptions::default();
        let fleet =
            FleetExecutor::for_sweep(addrs.to_vec(), machine.clone(), noise, schedule, opts);
        Box::new(fleet)
    };

    let measured = if flags.has("compressed") {
        // No budget: nothing is spilled, so the directory is never made.
        let spill = SpillConfig::in_memory(std::env::temp_dir());
        measure_profile_compressed(machine, mapping, p, noise, &sweep, &spill, &mut *exec).map(
            |(model, report, _)| {
                println!(
                    "scatter: {} classes over {} kinds of rank in {} B",
                    model.classes(),
                    model.class_map().kinds(),
                    model.heap_bytes()
                );
                let (machine, mapping) = (machine.clone(), mapping.clone());
                let compact = CompactProfile {
                    machine,
                    mapping,
                    p,
                    model,
                };
                (StoredProfile::Compact(compact), report)
            },
        )
    } else {
        measure_profile_decomposed(machine, mapping, p, noise, &sweep, &mut *exec)
            .map(|(profile, report)| (StoredProfile::Dense(profile), report))
    };
    if flags.has("stop-workers") {
        for a in addrs {
            if let Err(e) = shutdown_worker(a.as_str()) {
                eprintln!("warning: cannot stop worker {a}: {e}");
            }
        }
    }
    measured.map_err(|e| format!("profiling sweep failed: {e}"))
}

/// The `--listen` socket and the address it was bound to.
fn bind(flags: &Flags) -> Result<(TcpListener, SocketAddr), String> {
    let listen = flags.req("listen")?;
    let listener = TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let local =
        (listener.local_addr()).map_err(|e| format!("cannot resolve bound address: {e}"))?;
    Ok((listener, local))
}

fn cmd_profile_worker(flags: &Flags) -> Result<(), String> {
    let (listener, local) = bind(flags)?;
    println!("profile worker listening on {local}");
    serve_worker(listener, WorkerFault::None).map_err(|e| format!("worker failed: {e}"))
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use hbarrier::serve::{serve, ServeConfig};
    let mut cfg = ServeConfig::default();
    let cache = &mut cfg.cache;
    cache.shards = flags.int("shards").unwrap_or(cache.shards);
    cache.capacity = flags.int("cache-cap").unwrap_or(cache.capacity);
    cache.bytes_budget = flags.int("cache-bytes").unwrap_or(cache.bytes_budget);
    cfg.workers = flags.int("workers").unwrap_or(cfg.workers);
    if cfg.cache.shards > cfg.cache.capacity {
        return Err(format!(
            "--shards {} exceeds --cache-cap {}: every shard holds at least one entry",
            cfg.cache.shards, cfg.cache.capacity
        ));
    }
    let (listener, local) = bind(flags)?;
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
    use hbarrier::serve::workload::{synthetic_topologies, SplitMix64, ZipfSampler};
    use hbarrier::serve::{shutdown_server, TuneClient, TuneRequest};

    let addr = flags.req("connect")?;
    let count = flags.int("count").unwrap_or(64);
    let requests = flags.int("requests").unwrap_or(count * 4);
    let seed = flags.int("seed").map_or(1, |n| n as u64);
    let zipf_s = flags.real("zipf").unwrap_or(1.0);
    let check_every = match flags.text("check") {
        Some("all") => 1,
        Some("none") => 0,
        _ => 16,
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
    if flags.has("stats") {
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
    if flags.has("shutdown") {
        shutdown_server(addr).map_err(|e| format!("shutdown failed: {e}"))?;
        println!("server shut down");
    }
    Ok(())
}

fn cmd_tune(flags: &Flags) -> Result<(), String> {
    let mut cfg = if flags.has("extended") {
        TunerConfig::extended()
    } else {
        TunerConfig::default()
    };
    cfg.sparseness = flags.real("sparseness").unwrap_or(cfg.sparseness);
    let profile = load_profile(flags)?;
    let out = flags.req("out")?;
    let members: Vec<usize> = (0..profile.p()).collect();
    let tuned = tune_hybrid_costs(profile.cost(), &members, &cfg);
    write_schedule(out, &tuned.schedule)?;
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
    let (profile, schedule) = load_profile_and_schedule(flags)?;
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

/// Static analysis of one schedule file (`--schedule`) or of the standing
/// library sweep (`--library`). Fails when any report has a warning or an
/// error, so the command gates CI directly.
fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    let mut cfg = if flags.has("quick") {
        AnalyzeConfig::quick()
    } else {
        AnalyzeConfig::default()
    };
    cfg.strict_modes = flags.has("strict-modes");
    if let Some(name) = flags.text("name") {
        cfg.codegen_name = name.to_string();
    }

    let mut results: Vec<(String, AnalysisReport)> = Vec::new();
    match (flags.text("schedule"), flags.has("library")) {
        (Some(path), false) => {
            let report = analyze_schedule(&load_schedule(flags)?, &cfg);
            results.push((path.to_string(), report));
        }
        (None, true) => library_reports(flags.int("max-p").unwrap_or(64), &cfg, &mut results),
        _ => return Err("pass exactly one of --schedule or --library".to_string()),
    }

    let failed = results.iter().filter(|(_, r)| r.has_failures()).count();
    if flags.text("format") == Some("json") {
        let items: Vec<Value> = results
            .iter()
            .map(|(target, report)| {
                Value::Object(vec![
                    ("target".to_string(), Value::Str(target.clone())),
                    ("report".to_string(), report.to_value()),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("analyzed".to_string(), Value::UInt(results.len() as u64)),
            ("failed".to_string(), Value::UInt(failed as u64)),
            ("results".to_string(), Value::Array(items)),
        ]);
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
    } else {
        for (target, report) in &results {
            if !report.is_clean() {
                println!("== {target}");
                println!("{report}");
            }
        }
        println!(
            "analyzed {} schedule(s): {} clean, {failed} with findings",
            results.len(),
            results.len() - failed,
        );
    }
    if failed > 0 {
        return Err(format!("{failed} schedule(s) with findings"));
    }
    Ok(())
}

/// The standing target set: every library algorithm at every applicable
/// size up to `max_p`, plus the tuned hybrid barriers for the paper's two
/// evaluation clusters.
fn library_reports(max_p: usize, cfg: &AnalyzeConfig, out: &mut Vec<(String, AnalysisReport)>) {
    for alg in Algorithm::extended_set() {
        // n-way dissemination (w >= 3) is excluded from the clean gate:
        // at wrap-heavy sizes (e.g. 4-way, P = 20) its truncated last
        // stage re-delivers middle-stage windows over independent relays,
        // so those middle signals are genuinely dead — a true A003
        // finding, kept as a regression test rather than a CI failure.
        if matches!(alg, Algorithm::NWay(w) if w > 2) {
            continue;
        }
        for p in (2..=max_p).filter(|&p| alg.applicable(p)) {
            let members: Vec<usize> = (0..p).collect();
            let schedule = alg.full_schedule(p, &members);
            out.push((format!("{alg} p={p}"), analyze_schedule(&schedule, cfg)));
        }
    }
    for (label, machine, p) in [
        ("cluster-a", MachineSpec::dual_quad_cluster(8), 64),
        ("cluster-b", MachineSpec::dual_hex_cluster(10), 120),
    ] {
        let p = p.min(max_p);
        let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p);
        let members: Vec<usize> = (0..p).collect();
        let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
        out.push((
            format!("tuned {label} p={p}"),
            analyze_schedule(&tuned.schedule, cfg),
        ));
    }
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let reps = flags.int("reps").unwrap_or(25);
    let (profile, schedule) = load_profile_and_schedule(flags)?;
    let cfg = SimConfig {
        machine: profile.machine().clone(),
        mapping: profile.mapping().clone(),
        noise: NoiseModel::realistic(flags.int("seed").map_or(1, |n| n as u64)),
    };
    let mut world = SimWorld::new(cfg, profile.p());
    let t = measure_schedule(&mut world, &schedule, reps);
    println!(
        "measured barrier cost: {:.3} us (makespan of {reps} back-to-back executions / {reps}; \
         consecutive executions overlap)",
        t * 1e6
    );
    Ok(())
}

fn cmd_codegen(flags: &Flags) -> Result<(), String> {
    let schedule = load_schedule(flags)?;
    let name = flags.text("name").unwrap_or("generated_barrier");
    let programs = compile_schedule(&schedule).map_err(|e| format!("cannot compile: {e}"))?;
    let lang = flags.text("lang").unwrap_or("c");
    let emit = if lang == "rust" {
        rust_source
    } else {
        c_source
    };
    let src = emit(name, &programs).map_err(|e| format!("cannot emit {lang}: {e}"))?;
    print!("{src}");
    Ok(())
}

fn cmd_search(flags: &Flags) -> Result<(), String> {
    use hbarrier::core::compose::{search_optimal_barrier, SearchConfig};
    let cost = load_matrices(flags)?;
    let out = flags.req("out")?;
    if cost.p() > 6 {
        eprintln!(
            "warning: exhaustive search over {} ranks is exponential; expect long runtimes or truncation",
            cost.p()
        );
    }
    let default = SearchConfig::default();
    let cfg = SearchConfig {
        max_stages: flags.int("max-stages").unwrap_or(default.max_stages),
        max_expansions: flags
            .int("max-expansions")
            .unwrap_or(default.max_expansions),
    };
    // Seed with the greedy hybrid so the search can only improve on it.
    let members: Vec<usize> = (0..cost.p()).collect();
    let greedy = tune_hybrid_costs(&cost, &members, &TunerConfig::default());
    let result = search_optimal_barrier(&cost, &cfg, Some(&greedy.schedule))
        .ok_or_else(|| format!("no barrier within --max-stages {}", cfg.max_stages))?;
    write_schedule(out, &result.schedule)?;
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
    let cost = load_matrices(flags)?;
    let (matrix, label) = if flags.text("matrix") == Some("o") {
        (&cost.o, "O matrix (startup cost)")
    } else {
        (&cost.l, "L matrix (per-message latency)")
    };
    println!("{}", render_labelled(matrix, label));
    Ok(())
}

fn cmd_figures(flags: &Flags) -> Result<(), String> {
    let quick = flags.has("quick");
    let which = (flags.text("only")).map_or(FIGURES.to_vec(), |names| names.split(',').collect());
    let step = flags.int("step").unwrap_or(if quick { 4 } else { 1 });
    let out = Path::new(flags.text("out").unwrap_or("results"));
    run_figures(&which, quick, step, out)
}
