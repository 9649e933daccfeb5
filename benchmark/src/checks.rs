//! Output checks. A failed check is a failed operation: it raises
//! `failed`, never drops a sample. `tests/fault_injection.rs` proves the
//! checks are live by feeding them broken outputs.

use crate::spans::Recorder;
use hbar_analyze::{analyze_programs, analyze_schedule, AnalyzeConfig, Code};
use hbar_core::codegen::RankProgram;
use hbar_core::schedule::BarrierSchedule;
use hbar_serve::proto::TuneResponse;

/// Verdict on one schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleCheck {
    /// Every check passed.
    pub ok: bool,
    /// Diagnostics of any code or severity the analyzer reported.
    pub diagnostics: usize,
}

/// Checks a tuned schedule and its compiled programs: the Eq. 3 closure
/// (`closure_ok`, the `is_barrier` verdict the operation itself obtained),
/// the static analyzer's quick passes with no A005 (non-barrier), and the
/// program-level progress pass with no A011 (deadlock).
pub fn check_schedule(
    schedule: &BarrierSchedule,
    closure_ok: bool,
    programs: &[RankProgram],
    rec: &Recorder,
) -> ScheduleCheck {
    let sched_report = {
        let _s = rec.span("analyze_schedule");
        analyze_schedule(schedule, &AnalyzeConfig::quick())
    };
    let prog_report = {
        let _s = rec.span("analyze_programs");
        analyze_programs(schedule.n(), programs)
    };
    ScheduleCheck {
        ok: closure_ok
            && !sched_report.has_code(Code::NonBarrier)
            && !prog_report.has_code(Code::Deadlock),
        diagnostics: sched_report.diagnostics.len() + prog_report.diagnostics.len(),
    }
}

/// Whether a served answer is what a local tune of the same request
/// produces — the schedule byte for byte, the predicted cost bit for bit —
/// under the id that was asked.
pub fn response_matches(resp: &TuneResponse, id: u64, local: &(String, f64)) -> bool {
    resp.id == id
        && resp.schedule_json == local.0
        && resp.predicted_cost.to_bits() == local.1.to_bits()
}
