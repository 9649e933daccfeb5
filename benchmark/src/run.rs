//! What every workload shares: the run context, the outcome, the timed
//! loop's stop rule, and the guards that clean up after a run.

use crate::catalog::Metrics;
use crate::spans::{EpisodeTimes, Recorder};
use crate::stats::{median, median_of};
use hbar_serve::server::{ServeConfig, ServerHandle};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How often a workload sets itself up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// One invocation's arguments, as the workloads see them.
pub struct Ctx<'a> {
    /// `--seed`: the source of every random input.
    pub seed: u64,
    /// `--seconds`: how long the timed loop runs. 0 bounds the run by
    /// operation count instead (each workload's fixed prefix), which makes
    /// every deterministic metric repeat exactly.
    pub seconds: f64,
    /// `--trace 1`: record spans and run the standalone layer probes.
    pub trace: bool,
    /// `--smoke`: the small sizes `tests/smoke.rs` runs.
    pub smoke: bool,
    /// Scratch directory of this run (spill tiles live below it).
    pub dir: &'a Path,
    /// The span recorder, disabled unless an operation is being traced.
    pub rec: &'a Recorder,
}

impl Ctx<'_> {
    /// Whether a timed loop that may use `share` of `--seconds` should run
    /// another operation: until its time is up, and for `min_ops` at least.
    pub fn keep_going(&self, started: Instant, share: f64, done: usize, min_ops: usize) -> bool {
        done < min_ops || started.elapsed().as_secs_f64() < self.seconds * share
    }

    /// Arms the recorder for operation `index`. A traced run records every
    /// other operation, so that the same process yields the traced and the
    /// untraced operation time and hence the recorder's overhead.
    pub fn arm(&self, index: usize) -> bool {
        let traced = self.trace && index.is_multiple_of(2);
        self.rec.set_enabled(traced);
        self.rec.set_episode(index as u32);
        traced
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations executed and checked.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Every metric the workload has, end-to-end and per-layer.
    pub metrics: Metrics,
    /// The experimental factors of the run, for the record.
    pub factors: Vec<(&'static str, String)>,
}

/// Fills in the `trace.*` metrics from the recorded operations and the
/// traced/untraced operation times of the same run.
pub fn trace_metrics(
    metrics: &mut Metrics,
    episodes: &[EpisodeTimes],
    traced_op_s: &[f64],
    untraced_op_s: &[f64],
) {
    let share = |part: f64, e: &EpisodeTimes| part / e.root_s.max(f64::MIN_POSITIVE);
    metrics.set("trace.episode_s", median_of(episodes, |e| e.root_s));
    metrics.set(
        "trace.self_sum_frac",
        median_of(episodes, |e| share(e.self_sum_s(), e)),
    );
    metrics.set(
        "trace.root_self_frac",
        median_of(episodes, |e| share(e.root_self_s, e)),
    );
    let base = median(untraced_op_s);
    if base > 0.0 && !traced_op_s.is_empty() {
        metrics.set("trace.overhead_frac", median(traced_op_s) / base - 1.0);
    }
}

/// Directory the benchmark may write to: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-run scratch directory under [`out_dir`], removed when dropped:
/// on success, and on a panic that unwinds through `main`.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `out/tmp-<pid>-<nanos>/`.
    pub fn create() -> io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = out_dir().join(format!("tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An in-process `hbar serve` daemon on an ephemeral loopback port, shut
/// down and joined when dropped (so a failing run leaves no listener).
pub struct Daemon(Option<ServerHandle>);

impl Daemon {
    /// Spawns the daemon.
    pub fn spawn(cfg: &ServeConfig) -> io::Result<Daemon> {
        ServerHandle::spawn("127.0.0.1:0", cfg).map(|h| Daemon(Some(h)))
    }

    /// Where it listens.
    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("daemon runs until dropped").addr()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            let _ = handle.shutdown();
        }
    }
}
