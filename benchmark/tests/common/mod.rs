//! Shared by the integration tests: run the benchmark binary at `--smoke`
//! scale and read back what it printed.

use hbar_benchmark::report::{as_f64, parse_json};
use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// The last stdout line of one run, parsed.
pub struct Printed {
    pub result: Value,
    pub metrics: BTreeMap<String, f64>,
}

/// Runs `hbar-benchmark run --smoke --seconds 0` (bounded by operation
/// count, so deterministic metrics repeat) in a process of its own.
pub fn run_smoke(workload: &str, seed: u64, trace: bool, threads: usize) -> Printed {
    let out = Command::new(env!("CARGO_BIN_EXE_hbar-benchmark"))
        .args(["run", "--smoke", "--seconds", "0", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &threads.to_string()])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("the last line is JSON");
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(as_f64).expect("a numeric value");
            (name.clone(), value)
        })
        .collect();
    Printed { result, metrics }
}
