//! `compare A B`: holds the runs in result file `B` (the change) against
//! those in `A` (the parent), metric by metric, with the bounds and
//! directions `BENCHMARK.json` declares.
//!
//! A result file is what `run --out FILE` appends to: one JSON object per
//! line, one line per run. Several runs of a workload (other seeds, or
//! repeats) give each side a median and a run-to-run spread.

use crate::catalog::END_TO_END;
use crate::report::{as_f64, as_str, parse_json, Declared};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::fmt::Write;

/// The untraced runs of one workload in one result file.
#[derive(Default)]
struct Runs {
    /// Per metric, `(seed, value)` per run.
    values: BTreeMap<String, Vec<(u64, f64)>>,
    attempted: f64,
    failed: f64,
}

fn parse_runs(text: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut by_workload: BTreeMap<String, Runs> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse_json(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let factor = |k: &str| {
            doc.get("factors")
                .and_then(|f| f.get(k))
                .and_then(as_str)
                .ok_or_else(|| format!("line {}: no factor `{k}`", n + 1))
        };
        if factor("trace")? != "0" {
            continue; // per-layer metrics carry no bound
        }
        let seed: u64 = factor("seed")?
            .parse()
            .map_err(|_| format!("line {}: seed is not a number", n + 1))?;
        let runs = by_workload
            .entry(factor("workload")?.to_string())
            .or_default();
        let number = |k: &str| {
            doc.get(k)
                .and_then(as_f64)
                .ok_or_else(|| format!("line {}: no `{k}`", n + 1))
        };
        runs.attempted += number("attempted")?;
        runs.failed += number("failed")?;
        let metrics = doc.get("metrics").and_then(|m| m.as_object());
        for (name, m) in metrics.unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(as_f64) {
                runs.values.entry(name.clone()).or_default().push((seed, v));
            }
        }
    }
    Ok(by_workload)
}

/// Verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the parent by more than the bound.
    Ok,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// runs overlap: the data cannot tell.
    Unresolved,
}

/// Judges the change's values `b` against the parent's `a`.
pub fn judge(a: &[f64], b: &[f64], d: &Declared) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if d.higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    let wide = [a, b]
        .iter()
        .filter_map(|xs| spread(xs))
        .any(|s| s > d.bound);
    if !wide {
        return if worse_by > d.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    // Too noisy for the medians alone: only a clean separation decides.
    let better = |x: f64, y: f64| if d.higher_is_better { x > y } else { x < y };
    let every = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
    if every(&better) {
        Verdict::Ok
    } else if worse_by > d.bound && every(&|y, x| better(x, y)) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// Compares two result files. Returns the report and whether the change
/// passes: no metric regressed and no workload fails more operations.
pub fn compare(
    a_text: &str,
    b_text: &str,
    declared: &[Declared],
) -> Result<(String, bool), String> {
    let a = parse_runs(a_text).map_err(|e| format!("A: {e}"))?;
    let b = parse_runs(b_text).map_err(|e| format!("B: {e}"))?;
    let mut report = String::new();
    let mut pass = true;
    let pct = |s: Option<f64>| s.map_or("    n/a".to_string(), |s| format!("{:>6.2}%", s * 100.0));
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else { continue };
        let _ = writeln!(
            report,
            "{workload}\n  {:<18} {:>14} {:>8} {:>14} {:>8} {:>8} {:>7}  verdict",
            "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound"
        );
        for d in declared {
            let (Some(va), Some(vb)) = (ra.values.get(&d.name), rb.values.get(&d.name)) else {
                continue;
            };
            let xa: Vec<f64> = va.iter().map(|v| v.1).collect();
            let xb: Vec<f64> = vb.iter().map(|v| v.1).collect();
            let verdict = judge(&xa, &xb, d);
            pass &= verdict != Verdict::Regressed;
            // Deterministic metrics must repeat exactly wherever the two
            // files ran the same seed.
            let exact = END_TO_END
                .iter()
                .any(|m| m.name == d.name && m.deterministic)
                .then(|| {
                    let same = va
                        .iter()
                        .flat_map(|x| vb.iter().filter(move |y| y.0 == x.0).map(move |y| (x, y)))
                        .all(|(x, y)| x.1.to_bits() == y.1.to_bits());
                    if same {
                        " (bit-equal per seed)"
                    } else {
                        " (differs at equal seed)"
                    }
                });
            let (ma, mb) = (median(&xa), median(&xb));
            let _ = writeln!(
                report,
                "  {:<18} {:>14.6} {} {:>14.6} {} {:>+7.2}% {:>6.0}%  {}{}",
                d.name,
                ma,
                pct(spread(&xa)),
                mb,
                pct(spread(&xb)),
                (mb - ma) / ma.abs() * 100.0,
                d.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                exact.unwrap_or("")
            );
        }
        let (fa, fb) = (ra.failed / ra.attempted, rb.failed / rb.attempted);
        let more_failures = fb > fa;
        pass &= !more_failures;
        let _ = writeln!(
            report,
            "  {:<18} {:>14.6} {:>8} {:>14.6} {:>8} {:>8} {:>7}  {}",
            "fail_frac",
            fa,
            "",
            fb,
            "",
            "",
            "0%",
            if more_failures { "regressed" } else { "ok" }
        );
    }
    if report.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok((report, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "ready_ms".to_string(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn steady_metric_is_judged_on_medians() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(&a, &[104.0, 105.0, 103.0, 104.5], &lower(0.1)),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[114.0, 115.0, 113.0, 114.5], &lower(0.1)),
            Verdict::Regressed
        );
        let higher = Declared {
            higher_is_better: true,
            ..lower(0.1)
        };
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0, 80.5], &higher),
            Verdict::Regressed
        );
        assert_eq!(judge(&a, &[120.0, 121.0, 119.0], &higher), Verdict::Ok);
    }

    #[test]
    fn noisy_metric_needs_a_clean_separation() {
        let a = [100.0, 140.0, 80.0, 120.0];
        let d = lower(0.1);
        assert_eq!(
            judge(&a, &[90.0, 150.0, 85.0, 130.0], &d),
            Verdict::Unresolved
        );
        assert_eq!(judge(&a, &[70.0, 75.0, 60.0, 79.0], &d), Verdict::Ok);
        assert_eq!(
            judge(&a, &[170.0, 175.0, 160.0, 179.0], &d),
            Verdict::Regressed
        );
    }

    fn line(workload: &str, seed: u64, ready: f64, failed: u64) -> String {
        format!(
            "{{\"factors\":{{\"workload\":\"{workload}\",\"seed\":\"{seed}\",\"trace\":\"0\"}},\
             \"correct\":true,\"attempted\":10,\"failed\":{failed},\
             \"metrics\":{{\"ready_ms\":{{\"value\":{ready:?},\"unit\":\"ms\"}}}}}}\n"
        )
    }

    #[test]
    fn compare_flags_regressions_and_new_failures() {
        let a: String = (1..=4).map(|s| line("w", s, 100.0 + s as f64, 0)).collect();
        let same = compare(&a, &a, &[lower(0.1)]).unwrap();
        assert!(same.1, "{}", same.0);
        let slow: String = (1..=4).map(|s| line("w", s, 130.0 + s as f64, 0)).collect();
        let (report, pass) = compare(&a, &slow, &[lower(0.1)]).unwrap();
        assert!(!pass && report.contains("regressed"), "{report}");
        let failing: String = (1..=4).map(|s| line("w", s, 100.0 + s as f64, 1)).collect();
        assert!(!compare(&a, &failing, &[lower(0.1)]).unwrap().1);
        assert!(compare(&a, &line("other", 1, 1.0, 0), &[lower(0.1)]).is_err());
    }
}
