//! `BENCHMARK.json` ↔ code: every declared workload and metric exists in
//! the catalog with the same unit and is emitted by a run, and nothing is
//! emitted that is not declared.

mod common;

use hbar_benchmark::catalog::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use hbar_benchmark::report::{as_f64, as_str, benchmark_json_path, parse_json};
use serde::Value;
use std::collections::BTreeSet;

fn declaration() -> Value {
    let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json is readable");
    parse_json(&text).expect("BENCHMARK.json is JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(as_str).expect("a string field")
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.chars().all(ok)
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn assert_same_metrics(declared: &Value, catalog: &[MetricDef], extra_keys: &[&str]) {
    let declared = declared.as_array().expect("an array of metrics");
    let got: Vec<(&str, &str)> = declared
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    let want: Vec<(&str, &str)> = catalog.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(got, want, "BENCHMARK.json and catalog.rs disagree");
    for m in declared {
        let mut expected = vec!["name", "unit", "better"];
        expected.extend_from_slice(extra_keys);
        assert_eq!(keys(m), expected);
        assert!(is_name(text(m, "name")), "{}", text(m, "name"));
        assert!(is_unit(text(m, "unit")), "{}", text(m, "unit"));
        assert!(["lower", "higher"].contains(&text(m, "better")));
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let doc = declaration();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(is_name(text(w, "name")));
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let e2e = doc.get("end_to_end").unwrap();
    assert_same_metrics(e2e, END_TO_END, &["bound"]);
    assert!((1..=16).contains(&END_TO_END.len()));
    for m in e2e.as_array().unwrap() {
        let bound = m.get("bound").and_then(as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}", text(m, "name"));
    }
    let setup = &e2e.as_array().unwrap()[0];
    assert_eq!(
        (
            text(setup, "name"),
            text(setup, "unit"),
            text(setup, "better")
        ),
        ("setup_s", "s", "lower")
    );

    assert_same_metrics(doc.get("per_layer").unwrap(), PER_LAYER, &[]);
    assert!((1..=128).contains(&PER_LAYER.len()));

    let all: BTreeSet<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        .collect();
    assert_eq!(
        all.len(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "a name is used twice"
    );
    let seconds = doc.get("run_seconds").and_then(as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn runs_emit_exactly_the_declared_metrics() {
    let mut emitted_somewhere = BTreeSet::new();
    for workload in WORKLOADS {
        for (trace, catalog) in [(false, END_TO_END), (true, PER_LAYER)] {
            let run = common::run_smoke(workload, 11, trace, 2);
            assert_eq!(
                keys(&run.result),
                ["correct", "attempted", "failed", "metrics"]
            );
            assert_eq!(run.result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(run.result.get("failed").and_then(as_f64), Some(0.0));
            assert!(run.result.get("attempted").and_then(as_f64).unwrap() >= 1.0);
            let got: Vec<&str> = run.metrics.keys().map(String::as_str).collect();
            let want: BTreeSet<&str> = catalog.iter().map(|d| d.name).collect();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "{workload}");
            for (name, value) in &run.metrics {
                if !trace {
                    assert!(
                        *value > 0.0,
                        "{workload}: end-to-end `{name}` reads {value}"
                    );
                }
                if *value != 0.0 {
                    emitted_somewhere.insert(name.clone());
                }
            }
        }
    }
    // A declared metric no workload ever sets would be a dead declaration.
    // (Counts that are legitimately 0 on a clean smoke run are exempt.)
    let may_be_zero = [
        "fail_frac",
        "analyze.diagnostics",
        "serve.stats.errors",
        "simnet.scatter.staged_peak_bytes",
    ];
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            emitted_somewhere.contains(d.name) || may_be_zero.contains(&d.name),
            "`{}` is declared but no workload reports it",
            d.name
        );
    }
}
