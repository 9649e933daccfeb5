//! Integration tests of the `hbar` command-line tool: the full
//! profile → tune → verify → predict → simulate → codegen workflow, as a
//! downstream user would drive it.

use hbarrier::topo::machine::MachineSpec;
use hbarrier::topo::mapping::RankMapping;
use std::path::PathBuf;
use std::process::{Command, Output};

fn hbar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hbar"))
        .args(args)
        .output()
        .expect("hbar binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbar_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = workdir("workflow");
    let profile = dir.join("prof.json");
    let schedule = dir.join("sched.json");
    let profile_s = profile.to_str().unwrap();
    let schedule_s = schedule.to_str().unwrap();

    // profile (exact machine: fast and deterministic for the test)
    let o = hbar(&[
        "profile",
        "--machine",
        "2x2x2",
        "--mapping",
        "rr",
        "--out",
        profile_s,
        "--exact-machine",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("profiled 8 ranks"));
    assert!(profile.exists());

    // tune
    let o = hbar(&["tune", "--profile", profile_s, "--out", schedule_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("tuned hybrid for 8 ranks"));
    assert!(schedule.exists());

    // verify
    let o = hbar(&["verify", "--schedule", schedule_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("valid barrier: 8 ranks"));

    // predict
    let o = hbar(&["predict", "--profile", profile_s, "--schedule", schedule_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("predicted barrier cost"));

    // simulate
    let o = hbar(&[
        "simulate",
        "--profile",
        profile_s,
        "--schedule",
        schedule_s,
        "--reps",
        "3",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("measured barrier cost"));

    // codegen (both languages)
    let o = hbar(&[
        "codegen",
        "--schedule",
        schedule_s,
        "--lang",
        "c",
        "--name",
        "b8",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("void b8(MPI_Comm comm)"));
    assert!(stdout(&o).contains("MPI_Issend"));
    let o = hbar(&["codegen", "--schedule", schedule_s, "--lang", "rust"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("pub fn generated_barrier"));

    // heatmap
    let o = hbar(&["heatmap", "--profile", profile_s, "--matrix", "l"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("L matrix"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn measured_profile_via_cli_fast_mode() {
    let dir = workdir("measured");
    let profile = dir.join("prof.json");
    let o = hbar(&[
        "profile",
        "--machine",
        "1x2x2",
        "--mapping",
        "block",
        "--ranks",
        "4",
        "--out",
        profile.to_str().unwrap(),
        "--fast",
        "--seed",
        "7",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    // The stored profile parses and has the right size.
    let prof = hbarrier::topo::profile::TopologyProfile::load(&profile).unwrap();
    assert_eq!(prof.p, 4);
    assert!(prof.cost.o[(0, 1)] > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The exhaustive §IV-A sweep is the default: `hbar profile` writes the
/// bytes of the in-process exact sweep's profile, and reports the sweep
/// as it reports a clustered one.
#[test]
fn default_profile_is_the_exact_sweep() {
    use hbarrier::simnet::profiling::ProfilingConfig;
    use hbarrier::simnet::{measure_profile_decomposed, LocalExecutor, NoiseModel, SweepConfig};
    let dir = workdir("exact");
    let profile = dir.join("prof.json");
    let o = hbar(&[
        "profile",
        "--machine",
        "1x2x4",
        "--fast",
        "--seed",
        "3",
        "--out",
        profile.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    // 28 pairs and 8 diagonals, each its own class, each measured once.
    let summary = "(36 classes, 36 measurements, 1x fewer than exhaustive)";
    assert!(stdout(&o).contains(summary), "{}", stdout(&o));
    let (machine, noise, fast) = (
        MachineSpec::new(1, 2, 4),
        NoiseModel::realistic(3),
        ProfilingConfig::fast(),
    );
    let (expected, _) = measure_profile_decomposed(
        &machine,
        &RankMapping::RoundRobin,
        8,
        noise,
        &SweepConfig::exact(fast.clone()),
        &mut LocalExecutor::new(machine.clone(), noise, fast),
    )
    .unwrap();
    assert_eq!(
        std::fs::read_to_string(&profile).unwrap(),
        expected.to_json()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_rejects_broken_schedule() {
    let dir = workdir("broken");
    let schedule = dir.join("bad.json");
    // An arrival-only linear pattern (not a barrier).
    use hbarrier::core::schedule::{BarrierSchedule, Stage};
    use hbarrier::matrix::SparseBoolMatrix;
    let mut sched = BarrierSchedule::new(3);
    sched.push(Stage::arrival(SparseBoolMatrix::from_edges(
        3,
        [(1, 0), (2, 0)],
    )));
    std::fs::write(&schedule, serde_json::to_string(&sched).unwrap()).unwrap();
    let o = hbar(&["verify", "--schedule", schedule.to_str().unwrap()]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("NOT a barrier"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `hbar analyze` exits 0 on clean schedules and 1 on a finding, which it
/// prints on stdout (A005 for a schedule that does not synchronize).
#[test]
fn analyze_gates_on_findings() {
    let dir = workdir("analyze");
    let clean = dir.join("clean.json");
    let broken = dir.join("broken.json");
    let (clean, broken) = (clean.to_str().unwrap(), broken.to_str().unwrap());
    std::fs::write(clean, SCHEDULE_P4_JSON).unwrap();
    // Arrival only: rank 0 learns of everyone, nobody learns of rank 0.
    use hbarrier::core::schedule::{BarrierSchedule, Stage};
    use hbarrier::matrix::SparseBoolMatrix;
    let mut arrival = BarrierSchedule::new(3);
    arrival.push(Stage::arrival(SparseBoolMatrix::from_edges(
        3,
        [(1, 0), (2, 0)],
    )));
    std::fs::write(broken, serde_json::to_string(&arrival).unwrap()).unwrap();

    let o = hbar(&["analyze", "--library", "--quick", "--max-p", "8"]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(
        stdout(&o).ends_with(" clean, 0 with findings\n"),
        "{}",
        stdout(&o)
    );

    let o = hbar(&["analyze", "--schedule", clean, "--format", "json"]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("\"failed\": 0"), "{}", stdout(&o));

    let o = hbar(&["analyze", "--schedule", broken]);
    assert_eq!(o.status.code(), Some(1));
    let out = stdout(&o);
    assert!(
        out.starts_with(&format!("== {broken}\nerror[A005]: ")),
        "{out}"
    );
    assert!(out.ends_with("analyzed 1 schedule(s): 0 clean, 1 with findings\n"));
    let o = hbar(&["analyze", "--schedule", broken, "--format", "json"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stdout(&o).contains("\"code\": \"A005\""), "{}", stdout(&o));

    let o = hbar(&["analyze", "--library", "--bogus"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(o.stdout.is_empty());
    assert_eq!(stderr(&o), "error: unknown flag --bogus for `analyze`\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let o = hbar(&[]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("usage"));

    let o = hbar(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));

    let o = hbar(&["tune", "--profile"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("needs a value"));

    // A misspelt flag is an error, not a silently applied default.
    let o = hbar(&["profile", "--machine", "2x2x2", "--probs", "4"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stderr(&o).contains("unknown flag --probs for `profile`"));

    // So is a flag that only another command takes.
    let o = hbar(&["serve", "--listen", "127.0.0.1:0", "--ranks", "8"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stderr(&o).contains("unknown flag --ranks for `serve`"));

    // A value flag at the end of the line, after a valid switch.
    let o = hbar(&["profile", "--machine", "2x2x2", "--fast", "--out"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stderr(&o).contains("flag --out needs a value"));

    // The usage text comes from the table the parser rejects by.
    let o = hbar(&["help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("hbar serve --listen HOST:PORT [--shards N]"));

    let o = hbar(&["profile", "--machine", "0x1x1", "--out", "/tmp/x.json"]);
    assert!(!o.status.success());

    // Numbers out of range are error lines, not library panics or
    // aborted allocations. Values are checked before any file is read or
    // any socket used: `serve` listens on a port that is taken and
    // `tune-client` connects to one that is closed.
    let out = std::env::temp_dir().join(format!("hbar_cli_range_{}.json", std::process::id()));
    let out = out.to_str().unwrap();
    let bind = || std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let listener = bind();
    let taken = listener.local_addr().unwrap().to_string();
    let closed = bind().local_addr().unwrap().to_string();
    let profile = ["profile", "--machine", "1x2x8", "--fast", "--out", out];
    let tune = ["tune", "--profile", "/nonexistent.json", "--out", out];
    let simulate = [
        "simulate",
        "--profile",
        "/nonexistent.json",
        "--schedule",
        "/nonexistent.json",
    ];
    let serve = ["serve", "--listen", &taken];
    let client = ["tune-client", "--connect", &closed];
    let exact = [
        "profile",
        "--machine",
        "1x2x8",
        "--exact-machine",
        "--out",
        out,
    ];
    let figures = ["figures", "--out", out];
    // `figures` makes its directory before any figure runs: one under a
    // regular file is refused with nothing printed.
    let file = std::env::temp_dir().join(format!("hbar_cli_file_{}", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let under_file = file.join("figs");
    let under_file = ["figures", "--out", under_file.to_str().unwrap()];
    for (command, extra, complaint) in [
        (
            &profile[..],
            &["--ranks", "1", "--clustered"][..],
            "cannot profile 1 ranks",
        ),
        (&profile, &["--ranks", "0"], "cannot profile 0 ranks"),
        (
            &profile,
            &["--ranks", "1", "--compressed"],
            "cannot profile 1 ranks",
        ),
        (&profile, &["--ranks", "17"], "the machine has 16 cores"),
        (
            &profile,
            &["--ranks", "17", "--exact-machine"],
            "the machine has 16 cores",
        ),
        (
            &tune,
            &["--sparseness", "0"],
            "--sparseness must be in (0, 1]",
        ),
        (
            &tune,
            &["--sparseness", "-1"],
            "--sparseness must be in (0, 1]",
        ),
        (
            &tune,
            &["--sparseness", "nan"],
            "--sparseness must be in (0, 1]",
        ),
        (
            &tune,
            &["--sparseness", "2"],
            "--sparseness must be in (0, 1]",
        ),
        (
            &simulate,
            &["--reps", "0"],
            "--reps must be an integer in [1, 1000]",
        ),
        (
            &simulate,
            &["--reps", "1000000000000"],
            "--reps must be an integer in [1, 1000]",
        ),
        (
            &serve,
            &["--shards", "100000000"],
            "--shards must be an integer in [1, 1024]",
        ),
        (
            &serve,
            &["--shards", "64", "--cache-cap", "16"],
            "--shards 64 exceeds --cache-cap 16",
        ),
        (
            &client,
            &["--count", "0"],
            "--count must be an integer in [1, 65536]",
        ),
        (
            &client,
            &["--count", "1000000000"],
            "--count must be an integer in [1, 65536]",
        ),
        (&client, &["--zipf", "nan"], "--zipf must be in [0, inf)"),
        (
            &tune,
            &["--exact-scoring"],
            "unknown flag --exact-scoring for `tune`",
        ),
        // The closed-form profile measures nothing: a flag that shapes a
        // measurement is refused, not ignored.
        (
            &exact,
            &["--compressed"],
            "--compressed cannot be used with --exact-machine",
        ),
        (
            &exact,
            &["--clustered"],
            "--clustered cannot be used with --exact-machine",
        ),
        (
            &exact,
            &["--fast"],
            "--fast cannot be used with --exact-machine",
        ),
        (
            &exact,
            &["--workers", "127.0.0.1:1"],
            "--workers cannot be used with --exact-machine",
        ),
        (
            &exact,
            &["--stop-workers"],
            "--stop-workers cannot be used with --exact-machine",
        ),
        (
            &exact,
            &["--probes", "4"],
            "--probes cannot be used with --exact-machine",
        ),
        (
            &exact,
            &["--seed", "3"],
            "--seed cannot be used with --exact-machine",
        ),
        (
            &figures,
            &["--only", "fig10,figX"],
            "--only must be a comma-separated list of fig5, fig6,",
        ),
        (
            &figures,
            &["--quick", "--step", "abc", "--only", "fig10"],
            "--step must be an integer of at least 1, got `abc`",
        ),
        (
            &figures,
            &["--quick", "--step", "0", "--only", "fig10"],
            "--step must be an integer of at least 1, got `0`",
        ),
        (
            &figures,
            &["--quick", "--step", "-1", "--only", "fig10"],
            "--step must be an integer of at least 1, got `-1`",
        ),
        (
            &figures,
            &["--only", "fig10", "--step"],
            "flag --step needs a value",
        ),
        (&under_file, &["--only", "fig10"], "cannot create"),
    ] {
        let args = [command, extra].concat();
        let o = hbar(&args);
        let err = stderr(&o);
        assert_eq!(o.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with("error: ") && err.lines().count() == 1 && err.contains(complaint),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(o.stdout.is_empty(), "{args:?}: {}", stdout(&o));
    }
    assert!(!std::path::Path::new(out).exists());
    std::fs::remove_file(&file).unwrap();

    let o = hbar(&["predict", "--schedule", "/nonexistent.json"]);
    assert!(!o.status.success());
    assert!(
        stderr(&o).contains("missing required flag --profile") || stderr(&o).contains("cannot")
    );
}

#[test]
fn search_subcommand_finds_a_barrier() {
    let dir = workdir("search");
    let profile = dir.join("prof.json");
    let schedule = dir.join("opt.json");
    let o = hbar(&[
        "profile",
        "--machine",
        "2x1x2",
        "--mapping",
        "block",
        "--out",
        profile.to_str().unwrap(),
        "--exact-machine",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = hbar(&[
        "search",
        "--profile",
        profile.to_str().unwrap(),
        "--out",
        schedule.to_str().unwrap(),
        "--max-stages",
        "5",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("search complete"));
    let o = hbar(&["verify", "--schedule", schedule.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_below_the_minimum_stage_count_is_an_error() {
    // Three ranks need two one-signal-per-rank stages; a cap of one
    // admits no barrier, and the greedy seed is over it too.
    let dir = workdir("search_cap");
    let profile = dir.join("prof.json");
    let schedule = dir.join("opt.json");
    let o = hbar(&[
        "profile",
        "--machine",
        "1x1x3",
        "--mapping",
        "block",
        "--out",
        profile.to_str().unwrap(),
        "--exact-machine",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = hbar(&[
        "search",
        "--profile",
        profile.to_str().unwrap(),
        "--out",
        schedule.to_str().unwrap(),
        "--max-stages",
        "1",
    ]);
    assert!(!o.status.success());
    assert!(
        stderr(&o).contains("no barrier within --max-stages 1"),
        "{}",
        stderr(&o)
    );
    assert!(!stderr(&o).contains("panicked"), "{}", stderr(&o));
    assert!(!schedule.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_tune_client_round_trip() {
    use std::io::BufRead;

    // Bind on port 0 and parse the kernel-assigned address from the
    // daemon's first stdout line, exactly as a scripted caller would.
    let mut server = Command::new(env!("CARGO_BIN_EXE_hbar"))
        .args(["serve", "--listen", "127.0.0.1:0", "--cache-cap", "64"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve daemon spawns");
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("daemon prints its address");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparseable banner: {banner:?}"))
        .to_string();

    let o = hbar(&[
        "tune-client",
        "--connect",
        &addr,
        "--count",
        "8",
        "--requests",
        "32",
        "--check",
        "all",
        "--stats",
        "--shutdown",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("32 parity-checked"), "{out}");
    assert!(out.contains("server shut down"), "{out}");
    // The shutdown frame must take the daemon down cleanly.
    let status = server.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
}

#[test]
fn preset_machines_parse() {
    let dir = workdir("presets");
    let profile = dir.join("a.json");
    let o = hbar(&[
        "profile",
        "--machine",
        "cluster-a",
        "--ranks",
        "16",
        "--out",
        profile.to_str().unwrap(),
        "--exact-machine",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let prof = hbarrier::topo::profile::TopologyProfile::load(&profile).unwrap();
    assert_eq!(prof.machine.nodes, 8);
    assert_eq!(prof.machine.cores_per_node(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_profile_tunes_like_the_dense_one() {
    use hbarrier::topo::profile::StoredProfile;

    let dir = workdir("compact");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (dense, compact) = (path("dense.json"), path("compact.json"));
    let sweep = [
        "profile",
        "--machine",
        "8x2x4",
        "--mapping",
        "block",
        "--fast",
        "--seed",
        "5",
        "--clustered",
    ];
    // The same sweep, scattered into matrices and into a compressed model.
    let o = hbar(&[&sweep[..], &["--out", &dense]].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let o = hbar(&[&sweep[..], &["--compressed", "--out", &compact]].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("16 kinds of rank"), "{}", stdout(&o));
    let kilobytes = |file: &str| std::fs::metadata(file).unwrap().len() / 1024;
    assert!(kilobytes(&compact) * 20 < kilobytes(&dense));
    let StoredProfile::Compact(stored) = StoredProfile::load(compact.as_ref()).unwrap() else {
        panic!("--compressed writes the compact form");
    };
    assert_eq!((stored.p, stored.model.class_map().kinds()), (64, 16));

    // tune, predict and simulate read either file and say the same.
    let (from_dense, from_compact) = (path("dense.sched.json"), path("compact.sched.json"));
    for (profile, schedule) in [(&dense, &from_dense), (&compact, &from_compact)] {
        let o = hbar(&["tune", "--profile", profile, "--out", schedule]);
        assert!(o.status.success(), "{}", stderr(&o));
        assert!(stdout(&o).contains("tuned hybrid for 64 ranks"));
    }
    let schedule = std::fs::read(&from_dense).unwrap();
    assert!(schedule == std::fs::read(&from_compact).unwrap());
    let answers = |command: &str| {
        [&dense, &compact].map(|profile| {
            let o = hbar(&[command, "--profile", profile, "--schedule", &from_dense]);
            assert!(o.status.success(), "{}", stderr(&o));
            stdout(&o)
        })
    };
    let [by_dense, by_compact] = answers("predict");
    assert!(by_dense.contains("predicted barrier cost") && by_dense == by_compact);
    let [by_dense, by_compact] = answers("simulate");
    assert!(by_dense.contains("measured barrier cost") && by_dense == by_compact);

    // heatmap and search read the compact form's matrices; search on a
    // P = 4 sweep, bounded, since it is exponential in P.
    let answers = |command: &[&str], profiles: [&String; 2]| {
        profiles.map(|profile| {
            let o = hbar(&[command, &["--profile", profile]].concat());
            assert!(o.status.success(), "{command:?}: {}", stderr(&o));
            stdout(&o)
        })
    };
    let [by_dense, by_compact] = answers(&["heatmap", "--matrix", "o"], [&dense, &compact]);
    assert!(by_dense.contains("O matrix") && by_dense == by_compact);
    let (small_dense, small_compact) = (path("small.dense.json"), path("small.compact.json"));
    let small = [&sweep[..2], &["1x2x2"], &sweep[3..]].concat();
    for (extra, profile) in [(&[][..], &small_dense), (&["--compressed"], &small_compact)] {
        let o = hbar(&[&small[..], extra, &["--out", profile]].concat());
        assert!(o.status.success(), "{}", stderr(&o));
    }
    let search = ["search", "--out", &from_compact, "--max-expansions", "200"];
    let [by_dense, by_compact] = answers(&search, [&small_dense, &small_compact]);
    assert!(by_dense.starts_with("search TRUNCATED") && by_dense == by_compact);

    // A schedule over other ranks than the profile's is an error message.
    let o = hbar(&[
        "simulate",
        "--profile",
        &small_dense,
        "--schedule",
        &from_dense,
    ]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    assert!(
        stderr(&o).contains("schedule covers 64 ranks but profile has 4"),
        "{}",
        stderr(&o)
    );

    // A compact file that breaks the model's contract is an error message.
    let document = |parts: &hbarrier::topo::ModelParts| {
        format!(
            r#"{{"machine":{},"mapping":{},"p":64,"model":{}}}"#,
            serde_json::to_string(&stored.machine).unwrap(),
            serde_json::to_string(&stored.mapping).unwrap(),
            serde_json::to_string(parts).unwrap()
        )
    };
    let sound = stored.model.to_parts();
    let broken = path("broken.json");
    std::fs::write(&broken, document(&sound)).unwrap();
    let o = hbar(&["tune", "--profile", &broken, "--out", &from_compact]);
    assert!(o.status.success(), "{}", stderr(&o));
    let mut out_of_range = sound.clone();
    out_of_range.table[16 + 3] = 6;
    let mut short_table = sound.clone();
    short_table.table.pop();
    let mut unsorted = sound;
    unsorted.overrides = vec![(5, 9, 0), (5, 8, 0)];
    for (parts, complaint) in [
        (out_of_range, "references class 6, but only 6 classes exist"),
        (short_table, "class table has 255 cells, expected 16x16"),
        (unsorted, "override 1 is not after its predecessor"),
    ] {
        std::fs::write(&broken, document(&parts)).unwrap();
        let o = hbar(&["tune", "--profile", &broken, "--out", &from_compact]);
        assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
        assert!(
            stderr(&o).contains("error: cannot load profile"),
            "{}",
            stderr(&o)
        );
        assert!(stderr(&o).contains(complaint), "{}", stderr(&o));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `hbar tune --out` for the four ranks of `1x2x2`, block placement, as
/// written at d084464, when a stage still was a bitset matrix: two linear
/// pairs, a dissemination exchange between their roots, and the pairs'
/// departure.
const SCHEDULE_P4_JSON: &str = r#"{
  "n": 4,
  "stages": [
    {
      "matrix": {
        "n": 4,
        "words_per_row": 1,
        "bits": [
          0,
          1,
          0,
          4
        ]
      },
      "mode": "General"
    },
    {
      "matrix": {
        "n": 4,
        "words_per_row": 1,
        "bits": [
          4,
          0,
          1,
          0
        ]
      },
      "mode": "General"
    },
    {
      "matrix": {
        "n": 4,
        "words_per_row": 1,
        "bits": [
          2,
          0,
          8,
          0
        ]
      },
      "mode": "ReceiversAwaiting"
    }
  ]
}
"#;

#[test]
fn schedule_json_of_the_bitset_era_reads_and_rewrites_byte_for_byte() {
    use hbarrier::core::schedule::BarrierSchedule;
    use hbarrier::topo::cost::SendMode;
    let sched: BarrierSchedule = serde_json::from_str(SCHEDULE_P4_JSON).unwrap();
    let signals: Vec<Vec<(usize, usize)>> = sched
        .stages()
        .iter()
        .map(|s| s.matrix.edges().collect())
        .collect();
    assert_eq!(
        signals,
        vec![
            vec![(1, 0), (3, 2)],
            vec![(0, 2), (2, 0)],
            vec![(0, 1), (2, 3)]
        ]
    );
    let modes: Vec<SendMode> = sched.stages().iter().map(|s| s.mode).collect();
    assert_eq!(
        modes,
        [
            SendMode::General,
            SendMode::General,
            SendMode::ReceiversAwaiting
        ]
    );
    assert_eq!(
        serde_json::to_string_pretty(&sched).unwrap(),
        SCHEDULE_P4_JSON
    );
}

#[test]
fn malformed_schedule_files_are_error_messages() {
    let dir = workdir("hostile");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (profile, schedule) = (path("p4.json"), path("bad.json"));
    let o = hbar(&[
        "profile",
        "--machine",
        "1x2x2",
        "--mapping",
        "block",
        "--ranks",
        "4",
        "--exact-machine",
        "--out",
        &profile,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let commands = [
        vec!["verify", "--schedule", &schedule],
        vec!["predict", "--profile", &profile, "--schedule", &schedule],
        vec!["simulate", "--profile", &profile, "--schedule", &schedule],
        vec!["codegen", "--lang", "c", "--schedule", &schedule],
        vec!["analyze", "--schedule", &schedule],
    ];
    // The file as written is fine.
    std::fs::write(&schedule, SCHEDULE_P4_JSON).unwrap();
    for command in &commands {
        let o = hbar(command);
        assert!(o.status.success(), "{command:?}: {}", stderr(&o));
    }

    let stage0_bits = "0,\n          1,\n          0,\n          4";
    let stage0 = "\"matrix\": {\n        \"n\": 4,";
    for (what, from, to, complaint) in [
        (
            "bits two words short",
            stage0_bits,
            "0,\n          1",
            "bits holds 2 words, but n = 4 rows of 1 need 4",
        ),
        (
            "a zero stride",
            "\"words_per_row\": 1",
            "\"words_per_row\": 0",
            "words_per_row is 0, but n = 4 needs 1",
        ),
        (
            "a bit beyond the last column",
            stage0_bits,
            "1099511627776,\n          1,\n          0,\n          4",
            "row 0 has a bit at column 40, but n = 4",
        ),
        (
            "a stage size no file could back",
            stage0,
            "\"matrix\": {\n        \"n\": 1099511627776,",
            "words_per_row is 1, but n = 1099511627776 needs 17179869184",
        ),
        (
            "a stage of another size than the schedule",
            "{\n  \"n\": 4,",
            "{\n  \"n\": 5,",
            "stage 0: stage is 4x4 but the schedule covers 5 ranks",
        ),
        (
            "a self-signal",
            stage0_bits,
            "1,\n          1,\n          0,\n          4",
            "stage 0: rank 0 signals itself",
        ),
    ] {
        assert!(SCHEDULE_P4_JSON.contains(from), "{what}");
        std::fs::write(&schedule, SCHEDULE_P4_JSON.replacen(from, to, 1)).unwrap();
        for command in &commands {
            let o = hbar(command);
            let err = stderr(&o);
            assert_eq!(o.status.code(), Some(1), "{what}, {command:?}: {err}");
            assert!(
                err.contains("error: cannot parse schedule"),
                "{what}: {err}"
            );
            assert!(err.contains(complaint), "{what}, {command:?}: {err}");
            assert!(!err.contains("panicked"), "{what}, {command:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
