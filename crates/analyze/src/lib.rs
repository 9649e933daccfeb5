//! Static analysis for barrier schedules and their compiled artifacts.
//!
//! Everything else in this workspace establishes correctness dynamically:
//! the Eq. 3 closure *runs* over a schedule, and the emitted C is run by
//! the test suite. This crate adds the static layer: a schedule (from the
//! tuner, or read from JSON, which rejects malformed stages at the door)
//! is checked for empty stages, non-synchronization, dead signals, unsound
//! Eq. 2 cost modes, deadlocks in its compiled rank programs, and drift
//! between those programs and the emitted C source — all before anything
//! executes.
//!
//! Entry points: [`analyze_schedule`] for the full pipeline over a
//! [`BarrierSchedule`], [`analyze_programs`] for program-level checks
//! only, and [`source_drift`] to audit an emitted source against its
//! compiled programs. Findings carry stable codes ([`Code`]) documented
//! in `DESIGN.md` §11.

mod diag;
mod lints;
mod progress;
mod roundtrip;

pub use diag::{AnalysisReport, Code, Diagnostic, Severity};
pub use roundtrip::{parse_c_source, source_drift, CParse};

use hbar_core::codegen::{compile_schedule, RankProgram};
use hbar_core::schedule::BarrierSchedule;

/// Which passes run, and under what assumptions.
#[derive(Clone, Debug)]
pub struct AnalyzeConfig {
    /// Run the dead-signal pass (A003). One closure per signal — the
    /// most expensive pass, skipped by [`AnalyzeConfig::quick`].
    pub dead_signals: bool,
    /// Run the program-level progress/deadlock pass (A010–A012).
    pub progress: bool,
    /// Round-trip the C emitter (A021–A022). Skipped by
    /// [`AnalyzeConfig::quick`].
    pub roundtrip: bool,
    /// Also report *pessimistic* modes (A006): Eq. 1 stages whose
    /// receivers all provably await. Off by default because such stages
    /// are correct — Eq. 1 is an upper bound on Eq. 2 — and several
    /// optimal library schedules (e.g. the last stage of a
    /// non-power-of-two dissemination) trip it legitimately.
    pub strict_modes: bool,
    /// Function name handed to the emitter during round-trip.
    pub codegen_name: String,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            dead_signals: true,
            progress: true,
            roundtrip: true,
            strict_modes: false,
            codegen_name: "barrier".to_string(),
        }
    }
}

impl AnalyzeConfig {
    /// The CI smoke configuration: everything linear-time (structure,
    /// closure, modes, progress); skips dead signals and round-trip.
    pub fn quick() -> Self {
        AnalyzeConfig {
            dead_signals: false,
            roundtrip: false,
            ..Self::default()
        }
    }
}

/// Runs every configured pass over `schedule`.
pub fn analyze_schedule(schedule: &BarrierSchedule, cfg: &AnalyzeConfig) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    lints::lint_schedule(schedule, cfg, &mut diagnostics);
    match compile_schedule(schedule) {
        Ok(programs) => {
            if cfg.progress {
                progress::check_programs(schedule.n(), &programs, &mut diagnostics);
            }
            if cfg.roundtrip {
                roundtrip::check_roundtrip(&programs, &cfg.codegen_name, &mut diagnostics);
            }
        }
        Err(e) => diagnostics.push(Diagnostic::new(
            Code::InvalidProgram,
            Severity::Error,
            format!("schedule does not compile: {e}"),
        )),
    }
    AnalysisReport {
        n: schedule.n(),
        stages: schedule.len(),
        signals: schedule.total_signals(),
        diagnostics,
    }
}

/// Runs the program-level passes (A010–A012) over rank programs directly,
/// for callers that start from compiled or hand-written programs rather
/// than a schedule.
pub fn analyze_programs(n: usize, programs: &[RankProgram]) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    progress::check_programs(n, programs, &mut diagnostics);
    AnalysisReport {
        n,
        stages: 0,
        signals: programs.iter().map(RankProgram::send_count).sum(),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_core::algorithms::Algorithm;

    #[test]
    fn full_pipeline_clean_on_library_schedule() {
        let members: Vec<usize> = (0..10).collect();
        let sched = Algorithm::Tree.full_schedule(10, &members);
        let report = analyze_schedule(&sched, &AnalyzeConfig::default());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.n, 10);
        assert_eq!(report.signals, sched.total_signals());
    }

    #[test]
    fn program_entry_point_reports_signals() {
        let members: Vec<usize> = (0..6).collect();
        let sched = Algorithm::Dissemination.full_schedule(6, &members);
        let progs = hbar_core::codegen::compile_schedule(&sched).unwrap();
        let report = analyze_programs(6, &progs);
        assert!(report.is_clean());
        assert_eq!(report.signals, sched.total_signals());
    }
}
