//! Printing a run's result, and reading `BENCHMARK.json` and result files
//! back for `compare`.

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use crate::procfs::nproc;
use crate::run::Outcome;
use serde::Value;
use std::path::{Path, PathBuf};

/// Where the declaration lives: next to the `benchmark/` directory.
pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Parses a JSON document.
pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        _ => None,
    }
}

/// A JSON string.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The metrics a run with this `--trace` value reports.
pub fn metric_set(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The commit the sources are at, if they sit in a git checkout (read
/// from `.git` directly: the benchmark starts no process for this).
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One finished run, as printed and as appended to `--out`.
pub struct RunRecord<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// `--smoke`.
    pub smoke: bool,
    /// `RAYON_NUM_THREADS` of the run.
    pub threads: usize,
    /// What the workload measured.
    pub outcome: &'a Outcome,
}

impl RunRecord<'_> {
    fn metrics_value(&self) -> Value {
        Value::Object(
            metric_set(self.trace)
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        obj(vec![
                            ("value", Value::Float(self.outcome.metrics.get(d.name))),
                            ("unit", Value::Str(d.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_value(&self) -> Value {
        obj(vec![
            ("correct", Value::Bool(self.outcome.failed == 0)),
            ("attempted", Value::UInt(self.outcome.attempted)),
            ("failed", Value::UInt(self.outcome.failed)),
            ("metrics", self.metrics_value()),
        ])
    }

    /// Every experimental factor of the run.
    fn factors(&self) -> Vec<(&'static str, String)> {
        let mut f = vec![
            ("workload", self.workload.to_string()),
            ("seed", self.seed.to_string()),
            ("seconds", self.seconds.to_string()),
            ("trace", u8::from(self.trace).to_string()),
            ("smoke", self.smoke.to_string()),
            ("threads", self.threads.to_string()),
            ("nproc", nproc().to_string()),
            ("git_rev", git_rev()),
            (
                "release_profile",
                "opt-level 3, no LTO, debug line tables".to_string(),
            ),
        ];
        f.extend(self.outcome.factors.iter().cloned());
        f
    }

    /// The line appended to `--out`: the result object plus the factors.
    pub fn record_value(&self) -> Value {
        let Value::Object(mut entries) = self.result_value() else {
            unreachable!("result_value builds an object");
        };
        entries.insert(
            0,
            (
                "factors".to_string(),
                Value::Object(
                    self.factors()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Value::Str(v)))
                        .collect(),
                ),
            ),
        );
        Value::Object(entries)
    }

    /// Prints the factors, every metric by name with its unit, and as the
    /// last line the result object.
    pub fn print(&self) {
        for (k, v) in self.factors() {
            println!("# {k}: {v}");
        }
        for d in metric_set(self.trace) {
            println!(
                "{:<36} {:>18.6} {}",
                d.name,
                self.outcome.metrics.get(d.name),
                d.unit
            );
        }
        println!(
            "{}",
            serde_json::to_string(&self.result_value()).expect("a value tree serializes")
        );
    }
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may get worse by.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the program itself uses.
pub struct Declaration {
    /// `run_seconds`: the default of `--seconds`.
    pub run_seconds: f64,
    /// The bounded metrics.
    pub end_to_end: Vec<Declared>,
}

/// Reads `BENCHMARK.json`.
pub fn read_declaration() -> Result<Declaration, String> {
    let path = benchmark_json_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_json(&text)?;
    fn field<'a>(v: &'a Value, k: &str) -> Result<&'a Value, String> {
        v.get(k)
            .ok_or_else(|| format!("BENCHMARK.json: missing `{k}`"))
    }
    let run_seconds = as_f64(field(&doc, "run_seconds")?).ok_or("run_seconds: not a number")?;
    let mut end_to_end = Vec::new();
    for e in field(&doc, "end_to_end")?.as_array().unwrap_or_default() {
        end_to_end.push(Declared {
            name: as_str(field(e, "name")?)
                .ok_or("name: not a string")?
                .to_string(),
            higher_is_better: as_str(field(e, "better")?) == Some("higher"),
            bound: as_f64(field(e, "bound")?).ok_or("bound: not a number")?,
        });
    }
    Ok(Declaration {
        run_seconds,
        end_to_end,
    })
}

/// The recorded spans as a JSON document (`out/trace-<workload>.json`).
pub fn trace_json(spans: &[crate::spans::Span]) -> String {
    let spans = spans
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::Str(s.name.to_string())),
                ("start_ns", Value::UInt(s.start_ns)),
                ("end_ns", Value::UInt(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("episode", Value::UInt(u64::from(s.episode))),
                ("probe", Value::Bool(s.probe)),
            ])
        })
        .collect();
    serde_json::to_string(&obj(vec![("spans", Value::Array(spans))]))
        .expect("a value tree serializes")
}
