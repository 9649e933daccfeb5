//! Emitted C barriers, compiled with the system `cc` against a pthreads
//! stand-in for MPI (`mpi.h`) and run under the §VI staggered-delay check
//! of `driver.c`: each rank in turn sleeps before it enters, and a rank
//! that leaves before the sleeper entered left early. A stall (every rank
//! waiting on a counter no running rank can move) is reported by the
//! driver's watchdog, and a driver still running after [`DEADLINE`] is
//! killed and reaped here.

use hbarrier::core::codegen::{c_source, compile_schedule};
use hbarrier::core::schedule::BarrierSchedule;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

/// How long a driver may run before it is killed: far above any covered
/// run, and above the watchdog's own stall report.
const DEADLINE: Duration = Duration::from_secs(120);

/// Driver processes run at once.
const PARALLEL: usize = 2;

/// One emitted barrier: `code` defines `function` over `ranks` ranks;
/// `label` names it in failures.
#[derive(Clone, Debug)]
pub struct Source {
    pub label: String,
    pub ranks: usize,
    pub function: String,
    pub code: String,
}

impl Source {
    /// The emitted C of `schedule`, under the function name `name`.
    pub fn emitted(label: impl Into<String>, name: &str, schedule: &BarrierSchedule) -> Source {
        let programs = compile_schedule(schedule).expect("schedule compiles");
        Source {
            label: label.into(),
            ranks: schedule.n(),
            function: name.to_string(),
            code: c_source(name, &programs).expect("valid name"),
        }
    }
}

/// The driver built over a list of sources; case `i` is source `i`.
pub struct Driver {
    dir: PathBuf,
    bin: PathBuf,
    labels: Vec<String>,
}

/// What the driver printed for one case, and how its process ended.
#[derive(Debug)]
pub struct Outcome {
    pub label: String,
    /// The case's lines: `ok …`, `early …` or `stall …`.
    pub lines: Vec<String>,
    pub status: ExitStatus,
    /// The whole process's standard error.
    pub stderr: String,
}

impl Outcome {
    pub fn synchronized(&self) -> bool {
        self.lines.len() == 1 && self.lines[0].starts_with("ok ")
    }

    #[allow(dead_code)] // not every test binary that includes this module expects failures
    pub fn left_early(&self) -> bool {
        self.lines.iter().any(|l| l.starts_with("early "))
    }

    /// A stall the watchdog reported (its exit status is 3).
    #[allow(dead_code)]
    pub fn stalled(&self) -> bool {
        self.status.code() == Some(3) && self.lines.iter().any(|l| l.starts_with("stall "))
    }
}

fn case_id(i: usize) -> String {
    format!("c{i}")
}

/// A fresh directory for this process under the test target's scratch
/// space, so that concurrent test processes do not share one.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("executed_c")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Compiles `sources` into one translation unit with the driver, with
/// `cc -std=gnu11 -pthread` plus `flags`, in a fresh build directory
/// named after `tag`. The directory is removed with the driver unless a
/// test is failing.
pub fn build(tag: &str, sources: &[Source], flags: &[&str]) -> Driver {
    let dir = scratch_dir(tag);
    let mut unit = String::from("#include \"driver.c\"\n");
    let mut table = String::new();
    for (i, s) in sources.iter().enumerate() {
        let id = case_id(i);
        fs::write(dir.join(format!("{id}.c")), &s.code).expect("write source");
        // The emitted bytes are included as they are; the function they
        // define takes the case's name.
        unit += &format!(
            "#define {f} {id}\n#include \"{id}.c\"\n#undef {f}\n",
            f = s.function
        );
        table += &format!("    {{\"{id}\", {}, {id}}},\n", s.ranks);
    }
    unit += &format!(
        "const struct hbar_case hbar_cases[] = {{\n{table}}};\nconst int hbar_ncases = {};\n",
        sources.len()
    );
    fs::write(dir.join("unit.c"), unit).expect("write unit");
    let bin = dir.join("driver");
    let out = Command::new("cc")
        .args(["-std=gnu11", "-pthread", "-I"])
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/c"))
        .arg("-I")
        .arg(&dir)
        .args(flags)
        .arg(dir.join("unit.c"))
        .arg("-o")
        .arg(&bin)
        .output()
        .expect("the system C compiler `cc` runs");
    assert!(
        out.status.success(),
        "cc failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Driver {
        dir,
        bin,
        labels: sources.iter().map(|s| s.label.clone()).collect(),
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

/// A child that is killed and reaped if it is dropped still running.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

impl Driver {
    /// Runs the cases spread over [`PARALLEL`] driver processes, every
    /// rank delayed by `delay` in its turn.
    pub fn run_together(&self, delay: Duration) -> Vec<Outcome> {
        let mut groups = vec![Vec::new(); PARALLEL.min(self.labels.len())];
        for id in 0..self.labels.len() {
            groups[id % PARALLEL].push(id);
        }
        self.run_groups(delay, &groups)
    }

    /// Runs each case in a driver process of its own (a stall ends its
    /// process).
    #[allow(dead_code)]
    pub fn run_apart(&self, delay: Duration) -> Vec<Outcome> {
        let groups: Vec<Vec<usize>> = (0..self.labels.len()).map(|i| vec![i]).collect();
        self.run_groups(delay, &groups)
    }

    /// Runs each group of cases in a driver process, at most [`PARALLEL`]
    /// at once; returns the outcomes in case order.
    ///
    /// # Panics
    /// If a driver is still running at [`DEADLINE`] (it is killed and
    /// reaped first), or was ended by a signal.
    fn run_groups(&self, delay: Duration, groups: &[Vec<usize>]) -> Vec<Outcome> {
        let mut outcomes: Vec<Option<Outcome>> = self.labels.iter().map(|_| None).collect();
        let mut running: Vec<(usize, Reaped, Instant)> = Vec::new();
        let mut next = 0;
        while next < groups.len() || !running.is_empty() {
            while next < groups.len() && running.len() < PARALLEL {
                running.push((next, self.spawn(next, delay, &groups[next]), Instant::now()));
                next += 1;
            }
            std::thread::sleep(Duration::from_millis(2));
            let mut i = 0;
            while i < running.len() {
                let (g, child, start) = &mut running[i];
                let Some(status) = child.0.try_wait().expect("poll driver") else {
                    let cases: Vec<_> = groups[*g].iter().map(|&c| &self.labels[c]).collect();
                    assert!(
                        start.elapsed() < DEADLINE,
                        "driver still running after {DEADLINE:?} on {cases:?}; killed"
                    );
                    i += 1;
                    continue;
                };
                assert!(
                    status.code().is_some(),
                    "driver ended by a signal: {status}"
                );
                let read = |f: String| fs::read_to_string(self.dir.join(f)).expect("output");
                let (stdout, stderr) = (read(format!("out{g}")), read(format!("err{g}")));
                for &id in &groups[*g] {
                    let case = case_id(id);
                    let mine = |l: &&str| l.split_whitespace().nth(1) == Some(case.as_str());
                    outcomes[id] = Some(Outcome {
                        label: self.labels[id].clone(),
                        lines: stdout.lines().filter(mine).map(str::to_string).collect(),
                        status,
                        stderr: stderr.clone(),
                    });
                }
                running.swap_remove(i);
            }
        }
        outcomes.into_iter().flatten().collect()
    }

    fn spawn(&self, group: usize, delay: Duration, cases: &[usize]) -> Reaped {
        let file = |f: String| File::create(self.dir.join(f)).expect("output file");
        let child = Command::new(&self.bin)
            .arg(delay.as_micros().to_string())
            .args(cases.iter().map(|&c| case_id(c)))
            .stdout(file(format!("out{group}")))
            .stderr(file(format!("err{group}")))
            .spawn()
            .expect("spawn driver");
        Reaped(child)
    }

    /// Runs every case together and asserts that each one synchronizes:
    /// no early exit, no stall.
    pub fn assert_all_synchronize(&self, delay: Duration) {
        let outcomes = self.run_together(delay);
        let failed: Vec<_> = (outcomes.iter())
            .filter(|o| !o.synchronized())
            .map(|o| format!("{}: {:?} {}", o.label, o.lines, o.stderr))
            .collect();
        assert!(
            failed.is_empty(),
            "{} of {} emitted barriers failed the delay check:\n{}",
            failed.len(),
            outcomes.len(),
            failed.join("\n")
        );
    }
}
