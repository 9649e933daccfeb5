//! Schedule-level lints: empty stages, barrier verification, mode
//! soundness (Eq. 1 vs Eq. 2), and dead-signal detection via closure
//! deltas.

use crate::diag::{Code, Diagnostic, Severity};
use crate::AnalyzeConfig;
use hbar_core::schedule::BarrierSchedule;
use hbar_core::verify;
use hbar_matrix::ClosureWorkspace;
use hbar_topo::cost::SendMode;

/// Runs all schedule lints, appending findings to `out`. (That every
/// stage has the schedule's dimension and no rank signals itself is an
/// invariant of [`BarrierSchedule`], enforced where stages enter it.)
pub(crate) fn lint_schedule(
    schedule: &BarrierSchedule,
    cfg: &AnalyzeConfig,
    out: &mut Vec<Diagnostic>,
) {
    let n = schedule.n();
    // One walk of Eq. 3. A002 goes straight to `out`; A004 / A006, which
    // read what every rank knows before the stage (row `i`: the arrivals
    // `i` knows), wait for A005. A departure (Eq. 2) signal `i -> j` is
    // sound iff the sender can *know* the receiver already arrived.
    let mut modes = Vec::new();
    let known = verify::walk(schedule, |si, known| {
        let stage = &schedule.stages()[si];
        let empty = stage.matrix.is_zero();
        if empty {
            out.push(
                Diagnostic::new(
                    Code::EmptyStage,
                    Severity::Warning,
                    "stage carries no signals",
                )
                .with_stage(si),
            );
        }
        let awaits = |&(i, j): &(usize, usize)| known.get(i, j);
        match stage.mode {
            SendMode::ReceiversAwaiting => {
                for (i, j) in stage.matrix.edges().filter(|e| !awaits(e)) {
                    modes.push(
                        Diagnostic::new(
                            Code::ModeUnsound,
                            Severity::Error,
                            format!(
                                "departure-mode signal but sender {i} cannot know \
                                 receiver {j} has entered the barrier (Eq. 2 premise \
                                 unproven; Eq. 1 applies)"
                            ),
                        )
                        .with_stage(si)
                        .with_rank(i)
                        .with_partner(j),
                    );
                }
            }
            SendMode::General
                if cfg.strict_modes && !empty && stage.matrix.edges().all(|e| awaits(&e)) =>
            {
                modes.push(
                    Diagnostic::new(
                        Code::PessimisticMode,
                        Severity::Info,
                        "every receiver provably awaits its signal; \
                         ReceiversAwaiting (Eq. 2) would model this stage more tightly",
                    )
                    .with_stage(si),
                );
            }
            SendMode::General => {}
        }
    });

    // A005: not a barrier, read off the final state.
    if !known.is_all_true() {
        let mut missing = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| !known.get(j, i));
        let witnesses: Vec<String> = (missing.by_ref().take(3))
            .map(|(i, j)| format!("{j} never learns of {i}'s arrival"))
            .collect();
        let more = missing.count();
        out.push(Diagnostic::new(
            Code::NonBarrier,
            Severity::Error,
            format!(
                "schedule does not synchronize: {} knowledge pair(s) missing ({}{})",
                witnesses.len() + more,
                witnesses.join("; "),
                if more > 0 { "; ..." } else { "" }
            ),
        ));
    }
    out.append(&mut modes);

    // A003: dead signals. A signal is dead when excluding it from the
    // closure leaves the final knowledge matrix unchanged — the rest of
    // the schedule already delivers everything it carries. The kernel
    // answers in the paper's orientation, the transpose of `known`.
    if cfg.dead_signals {
        let full = known.transpose();
        let mut ws = ClosureWorkspace::new();
        for (si, stage) in schedule.stages().iter().enumerate() {
            for (i, j) in stage.matrix.edges() {
                let reduced = ws.closure_excluding(
                    n,
                    schedule.stages().iter().map(|s| &s.matrix),
                    si,
                    (i, j),
                );
                if reduced == &full {
                    out.push(
                        Diagnostic::new(
                            Code::DeadSignal,
                            Severity::Warning,
                            format!(
                                "signal {i} -> {j} carries no knowledge the rest of the \
                                 schedule does not already deliver"
                            ),
                        )
                        .with_stage(si)
                        .with_rank(i)
                        .with_partner(j),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_core::algorithms::Algorithm;
    use hbar_core::schedule::Stage;
    use hbar_matrix::SparseBoolMatrix;

    fn run(schedule: &BarrierSchedule, cfg: &AnalyzeConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        lint_schedule(schedule, cfg, &mut out);
        out
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_tree_barrier_has_no_findings() {
        let members: Vec<usize> = (0..13).collect();
        let sched = Algorithm::Tree.full_schedule(13, &members);
        assert!(run(&sched, &AnalyzeConfig::default()).is_empty());
    }

    #[test]
    fn empty_stage_is_flagged() {
        let mut sched = Algorithm::Linear.full_schedule(3, &[0, 1, 2]);
        sched.push(Stage::arrival(SparseBoolMatrix::zeros(3)));
        let diags = run(&sched, &AnalyzeConfig::default());
        assert_eq!(codes(&diags), vec![Code::EmptyStage]);
        assert_eq!(diags[0].stage, Some(2));
    }

    #[test]
    fn non_barrier_reports_witnesses() {
        let stages = vec![SparseBoolMatrix::from_edges(3, [(0, 1)])];
        let sched = BarrierSchedule::from_arrival_matrices(3, stages);
        let diags = run(&sched, &AnalyzeConfig::default());
        assert!(codes(&diags).contains(&Code::NonBarrier));
        let msg = &diags
            .iter()
            .find(|d| d.code == Code::NonBarrier)
            .unwrap()
            .message;
        assert!(msg.contains("never learns"), "{msg}");
    }

    #[test]
    fn unsound_departure_mode_is_flagged() {
        // Stage 0 as departure: nobody's arrival is known yet, so every
        // Eq. 2 signal is unsound.
        let mut sched = BarrierSchedule::new(2);
        sched.push(Stage::departure(SparseBoolMatrix::from_edges(2, [(0, 1)])));
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(2, [(1, 0)])));
        let diags = run(&sched, &AnalyzeConfig::default());
        assert_eq!(codes(&diags), vec![Code::ModeUnsound]);
        assert_eq!(diags[0].stage, Some(0));
        assert_eq!(diags[0].rank, Some(0));
        assert_eq!(diags[0].partner, Some(1));
    }

    #[test]
    fn sound_departure_mode_passes() {
        // Linear: gather to 0, then scatter; the scatter is sound Eq. 2.
        let members: Vec<usize> = (0..5).collect();
        let sched = Algorithm::Linear.full_schedule(5, &members);
        assert!(run(&sched, &AnalyzeConfig::default()).is_empty());
    }

    #[test]
    fn strict_modes_flags_pessimistic_general_stage() {
        // Same linear barrier but with the departure stage forced to
        // General: correct, but Eq. 1 over-models it.
        let members: Vec<usize> = (0..4).collect();
        let sched = Algorithm::Linear.full_schedule(4, &members);
        let mats: Vec<_> = sched.stages().iter().map(|s| s.matrix.clone()).collect();
        let forced = BarrierSchedule::from_arrival_matrices(4, mats);
        let cfg = AnalyzeConfig {
            strict_modes: true,
            ..AnalyzeConfig::default()
        };
        let diags = run(&forced, &cfg);
        assert_eq!(codes(&diags), vec![Code::PessimisticMode]);
        assert_eq!(diags[0].stage, Some(1));
        assert_eq!(diags[0].severity, Severity::Info);
        // Off by default.
        assert!(run(&forced, &AnalyzeConfig::default()).is_empty());
    }

    #[test]
    fn dead_signal_is_detected_via_closure_delta() {
        // Dissemination over 4 ranks is minimal (no signal is dead). Add
        // an extra stage resending 0 -> 1: by then 0 knows everything, so
        // the resend itself is dead, and it also retroactively kills
        // stage 1's 3 -> 1 (the only knowledge 3 -> 1 delivered was a
        // subset of what the resend now provides).
        let members: Vec<usize> = (0..4).collect();
        let base = Algorithm::Dissemination.full_schedule(4, &members);
        assert!(run(&base, &AnalyzeConfig::default()).is_empty(), "minimal");
        let mut sched = base;
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(4, [(0, 1)])));
        let diags = run(&sched, &AnalyzeConfig::default());
        assert_eq!(codes(&diags), vec![Code::DeadSignal, Code::DeadSignal]);
        assert_eq!(diags[0].stage, Some(1));
        assert_eq!((diags[0].rank, diags[0].partner), (Some(3), Some(1)));
        assert_eq!(diags[1].stage, Some(2));
        assert_eq!((diags[1].rank, diags[1].partner), (Some(0), Some(1)));
        // The quick config skips the (quadratic) dead-signal pass.
        let quick = AnalyzeConfig::quick();
        assert!(run(&sched, &quick).is_empty());
    }
}
