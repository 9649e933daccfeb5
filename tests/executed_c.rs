//! The C the system ships, run. `hbar codegen` writes it and `hbar serve`
//! sends it to a client that asks for code; here those exact bytes are
//! compiled with the system `cc` against a pthreads stand-in for MPI and
//! run under the paper's §VI staggered-delay check (`tests/c/`).
//!
//! Covered: the three paper algorithms and every n-way dissemination
//! radix the tuner weighs, and the tuned hybrid on ×2×4 and ×2×6 nodes
//! under block and round-robin placement, at P ∈ {2, 3, 5, 16, 64}. Each
//! rank is one OS thread, so P stays at 64.

mod c;

use c::Source;
use hbarrier::core::algorithms::Algorithm;
use hbarrier::core::compose::level_candidates;
use hbarrier::core::schedule::{BarrierSchedule, Stage};
use hbarrier::matrix::SparseBoolMatrix;
use hbarrier::serve::client::TuneClient;
use hbarrier::serve::proto::{TuneRequest, REQ_WANT_CODE};
use hbarrier::serve::server::{ServeConfig, ServerHandle, SERVED_BARRIER_NAME};
use hbarrier::topo::profile::TopologyProfile;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

const RANKS: [usize; 5] = [2, 3, 5, 16, 64];
/// Sockets per node and cores per socket.
const SHAPES: [(usize, usize); 2] = [(2, 4), (2, 6)];
const DELAY: Duration = Duration::from_millis(2);
/// Long enough for a rank that waits for no one to leave while the
/// delayed rank sleeps, on a loaded host.
const NEGATIVE_DELAY: Duration = Duration::from_millis(20);

/// Runs `hbar` and returns its stdout.
fn hbar(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hbar"))
        .args(args)
        .output()
        .expect("run hbar");
    assert!(
        out.status.success(),
        "hbar {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

/// What `hbar codegen --name NAME` writes for the schedule file `file`.
fn codegen(file: &Path, label: String, name: String, ranks: usize) -> Source {
    let code = hbar(&["codegen", "--schedule", path(file), "--name", &name]);
    Source {
        label,
        ranks,
        function: name,
        code,
    }
}

/// The library schedules at `p`: the paper's three and each further
/// dissemination radix the tuner weighs there.
fn library(p: usize) -> Vec<Algorithm> {
    let radices = level_candidates(Algorithm::Dissemination, p);
    let mut algs = Algorithm::PAPER_SET.to_vec();
    algs.extend(
        radices
            .into_iter()
            .filter(|&a| a != Algorithm::Dissemination),
    );
    algs
}

/// Every covered source, built once per test binary: the library
/// schedules and the tuned hybrids through `hbar codegen`, then the
/// hybrids' cost matrices sent to an in-process `hbar serve` by a client
/// that asks for code.
fn covered() -> &'static [Source] {
    static SOURCES: OnceLock<Vec<Source>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let dir = c::scratch_dir("inputs");
        let mut sources = Vec::new();
        let mut profiles = Vec::new();
        for p in RANKS {
            let members: Vec<usize> = (0..p).collect();
            for alg in library(p) {
                let name = format!("{}_p{p}", alg.tag().to_lowercase());
                let file = dir.join(format!("{name}.json"));
                let schedule = alg.full_schedule(p, &members);
                std::fs::write(&file, serde_json::to_string(&schedule).unwrap()).unwrap();
                sources.push(codegen(&file, format!("{alg} p={p}"), name, p));
            }
            for (sockets, cores) in SHAPES {
                let machine = format!("{}x{sockets}x{cores}", p.div_ceil(sockets * cores));
                for mapping in ["block", "rr"] {
                    let name = format!("hybrid_{mapping}_{sockets}x{cores}_p{p}");
                    let profile = dir.join(format!("{name}.profile.json"));
                    let schedule = dir.join(format!("{name}.json"));
                    let ranks = p.to_string();
                    hbar(&[
                        "profile",
                        "--machine",
                        &machine,
                        "--mapping",
                        mapping,
                        "--ranks",
                        &ranks,
                        "--exact-machine",
                        "--out",
                        path(&profile),
                    ]);
                    hbar(&[
                        "tune",
                        "--profile",
                        path(&profile),
                        "--out",
                        path(&schedule),
                    ]);
                    let label = format!("hybrid {machine} {mapping} p={p}");
                    sources.push(codegen(&schedule, format!("{label} (codegen)"), name, p));
                    profiles.push((label, profile, p));
                }
            }
        }
        let server = ServerHandle::spawn("127.0.0.1:0", &ServeConfig::default()).expect("serve");
        let mut client = TuneClient::connect(server.addr()).expect("connect");
        for (id, (label, profile, p)) in profiles.into_iter().enumerate() {
            let cost = TopologyProfile::load(&profile).expect("profile").cost;
            let mut req = TuneRequest::new(id as u64, cost);
            req.flags |= REQ_WANT_CODE;
            let code = client.request(&req).expect("served").code_c;
            sources.push(Source {
                label: format!("{label} (served)"),
                ranks: p,
                function: SERVED_BARRIER_NAME.to_string(),
                code,
            });
        }
        client.drain().expect("drain");
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
        sources
    })
}

#[test]
fn shipped_c_synchronizes_under_the_delay_check() {
    let sources = covered();
    // Three paper algorithms at each P, four codegen and four served
    // hybrids, and the radices (none at P = 2).
    assert!(sources.len() >= RANKS.len() * 11 + 6, "{}", sources.len());
    c::build("shipped", sources, &[]).assert_all_synchronize(DELAY);
}

/// `code` without its `nth` call of `call` (`MPI_Irecv` or `MPI_Issend`):
/// the later requests of its array (`rreq` or `sreq`) move down one slot
/// and the `MPI_Waitall` that closes them counts one fewer, so the mutant
/// is still well-formed.
fn drop_request(code: &str, call: &str, array: &str, nth: usize) -> String {
    let mut lines: Vec<String> = code.lines().map(str::to_string).collect();
    let at = (lines.iter().enumerate())
        .filter(|(_, l)| l.trim_start().starts_with(call))
        .nth(nth)
        .map(|(i, _)| i)
        .expect("the call is there");
    let slot = |l: &str| -> Option<usize> {
        let from = l.find(&format!("&{array}["))? + array.len() + 2;
        l[from..].split(']').next()?.parse().ok()
    };
    let dropped = slot(&lines.remove(at)).expect("a request slot");
    let wait = "MPI_Waitall(";
    let closing = format!(", {array}, MPI_STATUSES_IGNORE);");
    for line in &mut lines[at..] {
        if let Some(s) = slot(line).filter(|&s| s > dropped) {
            *line = line.replace(&format!("&{array}[{s}]"), &format!("&{array}[{}]", s - 1));
        } else if let Some(count) = line
            .trim_start()
            .strip_prefix(wait)
            .and_then(|r| r.strip_suffix(&closing))
        {
            let count: usize = count.parse().expect("a count");
            *line = line.replace(
                &format!("{wait}{count}{closing}"),
                &format!("{wait}{}{closing}", count - 1),
            );
            break;
        }
    }
    lines.join("\n") + "\n"
}

/// Mutation gate: for every covered schedule at P ≤ 16, dropping one
/// receive or one send stalls the barrier, and the driver's watchdog
/// names the stuck ranks (no mutant is left to the harness deadline).
#[test]
fn a_dropped_receive_or_send_stalls() {
    let mut mutants = Vec::new();
    for s in covered().iter().filter(|s| s.ranks <= 16) {
        for (call, array) in [("MPI_Irecv(", "rreq"), ("MPI_Issend(", "sreq")] {
            let n = s.code.matches(call).count();
            mutants.push(Source {
                label: format!("{} without {call}…) {} of {n}", s.label, n / 2),
                code: drop_request(&s.code, call, array, n / 2),
                ..s.clone()
            });
        }
    }
    for o in c::build("mutants", &mutants, &[]).run_apart(DELAY) {
        assert!(o.stalled(), "{o:#?}");
    }
}

/// The schedule's first `keep` stages.
fn truncated(sched: &BarrierSchedule, keep: usize) -> BarrierSchedule {
    let mut out = BarrierSchedule::new(sched.n());
    for stage in sched.stages().iter().take(keep) {
        out.push(stage.clone());
    }
    out
}

/// A schedule that is not a barrier lets ranks leave early: the arrival
/// half of the linear barrier, and every library barrier at P = 16
/// without its last stage.
///
/// Not every cut is early at every P: a synchronous send completes once
/// its receiver has entered, so the sender learns of it too. At P = 5, the
/// 2-, 3- and 4-way dissemination barriers without their last stage still
/// synchronize that way: under radix 2 (stages +1, +2) a rank hears from
/// the three ranks before it, and its first send completes once the rank
/// after it has entered.
#[test]
fn arrival_only_and_cut_short_schedules_leave_early() {
    let mut sources = Vec::new();
    for p in [3, 16] {
        let arrival = SparseBoolMatrix::from_edges(p, (1..p).map(|i| (i, 0)));
        let mut only_arrival = BarrierSchedule::new(p);
        only_arrival.push(Stage::arrival(arrival));
        sources.push(Source::emitted(
            format!("arrival only p={p}"),
            "b",
            &only_arrival,
        ));
    }
    let p = 16;
    let members: Vec<usize> = (0..p).collect();
    for alg in Algorithm::extended_set() {
        let full = alg.full_schedule(p, &members);
        let cut = truncated(&full, full.len() - 1);
        sources.push(Source::emitted(format!("{alg} p={p} cut short"), "b", &cut));
    }
    for o in c::build("cut_short", &sources, &[]).run_together(NEGATIVE_DELAY) {
        assert!(o.left_early() && o.status.code() == Some(1), "{o:#?}");
    }
}

/// The P = 16 and P = 64 hybrids, built with ThreadSanitizer: the stand-in
/// and the driver share no memory without an atomic or a join.
#[test]
fn hybrids_run_clean_under_thread_sanitizer() {
    let hybrids: Vec<Source> = (covered().iter())
        .filter(|s| s.ranks >= 16 && s.label.starts_with("hybrid") && s.label.contains("block"))
        .filter(|s| s.label.ends_with("(codegen)") && s.label.contains("x2x4"))
        .cloned()
        .collect();
    assert_eq!(hybrids.len(), 2);
    for o in c::build("tsan", &hybrids, &["-fsanitize=thread", "-g"]).run_together(DELAY) {
        assert!(o.synchronized() && o.status.success(), "{o:#?}");
        assert!(
            !o.stderr.contains("WARNING: ThreadSanitizer"),
            "{}",
            o.stderr
        );
    }
}
