//! Library-wide analyzer properties and mutation coverage.
//!
//! Three guarantees pinned here:
//! 1. every library algorithm and both paper-topology tuned hybrids
//!    analyze clean under the *full* pass set (issue acceptance),
//! 2. mutants — any single dropped signal, any flipped stage mode — are
//!    always reported (with a first-principles knowledge-trace oracle
//!    deciding which code must fire),
//! 3. the one true positive in the wider library (n-way dissemination's
//!    wrap redundancy) keeps being found.

use hbar_analyze::{analyze_schedule, AnalyzeConfig, Code};
use hbar_core::algorithms::Algorithm;
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_core::schedule::{BarrierSchedule, Stage};
use hbar_matrix::knowledge_closure;
use hbar_topo::cost::SendMode;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;

fn full_schedule(alg: Algorithm, p: usize) -> BarrierSchedule {
    let members: Vec<usize> = (0..p).collect();
    alg.full_schedule(p, &members)
}

/// The satellite-task property: linear, dissemination, butterfly and tree
/// analyze clean at every applicable P in 2..=64, all passes on.
#[test]
fn library_algorithms_analyze_clean_up_to_64() {
    let cfg = AnalyzeConfig::default();
    let mut analyzed = 0usize;
    for alg in [
        Algorithm::Linear,
        Algorithm::Dissemination,
        Algorithm::Butterfly,
        Algorithm::Tree,
    ] {
        for p in 2..=64 {
            if !alg.applicable(p) {
                continue;
            }
            let report = analyze_schedule(&full_schedule(alg, p), &cfg);
            assert!(report.is_clean(), "{alg} p={p}:\n{report}");
            analyzed += 1;
        }
    }
    assert!(analyzed > 130, "swept {analyzed} schedules");
}

/// Tuned hybrids over both of the paper's evaluation topologies are clean
/// under the full pass set, including codegen round-trips.
#[test]
fn tuned_paper_topologies_analyze_clean() {
    for (machine, p) in [
        (MachineSpec::dual_quad_cluster(8), 64),
        (MachineSpec::dual_hex_cluster(10), 120),
    ] {
        let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p);
        let members: Vec<usize> = (0..p).collect();
        let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
        let report = analyze_schedule(&tuned.schedule, &AnalyzeConfig::default());
        assert!(report.is_clean(), "p={p}:\n{report}");
    }
}

/// Rebuilds `schedule` with one signal removed.
fn drop_signal(schedule: &BarrierSchedule, stage: usize, edge: (usize, usize)) -> BarrierSchedule {
    let mut out = BarrierSchedule::new(schedule.n());
    for (si, s) in schedule.stages().iter().enumerate() {
        let mut m = s.matrix.clone();
        if si == stage {
            m.set(edge.0, edge.1, false);
        }
        out.push(Stage {
            matrix: m,
            mode: s.mode,
        });
    }
    out
}

/// Every single-signal-dropped mutant of every library schedule is
/// reported: either the mutant no longer synchronizes (A005) or the
/// dropped signal was load-bearing for someone else's redundancy and a
/// dead signal remains — never silence.
#[test]
fn dropped_signal_mutants_are_always_flagged() {
    // Dead-signal + closure passes only: mutation coverage needs the
    // schedule-level verdicts, not emitters.
    let cfg = AnalyzeConfig {
        progress: false,
        roundtrip: false,
        ..AnalyzeConfig::default()
    };
    let mut mutants = 0usize;
    for alg in [
        Algorithm::Linear,
        Algorithm::Dissemination,
        Algorithm::Butterfly,
        Algorithm::Tree,
    ] {
        for p in [3usize, 4, 6, 8, 13] {
            if !alg.applicable(p) {
                continue;
            }
            let schedule = full_schedule(alg, p);
            for si in 0..schedule.len() {
                let edges: Vec<(usize, usize)> = schedule.stages()[si].matrix.edges().collect();
                for edge in edges {
                    let mutant = drop_signal(&schedule, si, edge);
                    let report = analyze_schedule(&mutant, &cfg);
                    assert!(
                        report.has_code(Code::NonBarrier) || report.has_code(Code::DeadSignal),
                        "{alg} p={p} drop stage {si} {edge:?} went unflagged:\n{report}"
                    );
                    mutants += 1;
                }
            }
        }
    }
    assert!(mutants > 200, "exercised {mutants} mutants");
}

/// Rebuilds `schedule` with one stage's cost mode flipped.
fn flip_mode(schedule: &BarrierSchedule, stage: usize) -> BarrierSchedule {
    let mut out = BarrierSchedule::new(schedule.n());
    for (si, s) in schedule.stages().iter().enumerate() {
        let mode = if si == stage {
            match s.mode {
                SendMode::General => SendMode::ReceiversAwaiting,
                SendMode::ReceiversAwaiting => SendMode::General,
            }
        } else {
            s.mode
        };
        out.push(Stage {
            matrix: s.matrix.clone(),
            mode,
        });
    }
    out
}

/// Flipped-mode mutants, judged against a first-principles oracle
/// computed straight from the knowledge trace (Eq. 3): a stage may use
/// Eq. 2 iff every sender already knows its receiver arrived.
///
/// - Arrival -> departure flips must be flagged A004 exactly when the
///   oracle says the Eq. 2 premise fails (and accepted when it holds —
///   e.g. the wrap stage of a non-power-of-two dissemination, where the
///   flip is an *improvement*, not a defect).
/// - Departure -> arrival flips are always sound-but-pessimal; under
///   strict modes they must be flagged A006.
#[test]
fn flipped_mode_mutants_match_the_knowledge_oracle() {
    let cfg = AnalyzeConfig {
        dead_signals: false,
        progress: false,
        roundtrip: false,
        strict_modes: true,
        ..AnalyzeConfig::default()
    };
    let mut flips = 0usize;
    let mut unsound_flips = 0usize;
    for alg in [
        Algorithm::Linear,
        Algorithm::Dissemination,
        Algorithm::Butterfly,
        Algorithm::Tree,
    ] {
        for p in [2usize, 5, 8, 12, 16] {
            if !alg.applicable(p) {
                continue;
            }
            let schedule = full_schedule(alg, p);
            let stages = schedule.stages().iter().map(|s| &s.matrix);
            for si in 0..schedule.len() {
                let mutant = flip_mode(&schedule, si);
                let report = analyze_schedule(&mutant, &cfg);
                let before = knowledge_closure(p, stages.clone().take(si));
                let eq2_ok = schedule.stages()[si]
                    .matrix
                    .edges()
                    .all(|(i, j)| before.get(j, i));
                match schedule.stages()[si].mode {
                    SendMode::General => {
                        // Now claims ReceiversAwaiting.
                        let flagged = report
                            .with_code(Code::ModeUnsound)
                            .any(|d| d.stage == Some(si));
                        assert_eq!(
                            flagged, !eq2_ok,
                            "{alg} p={p} stage {si} -> departure:\n{report}"
                        );
                        if !eq2_ok {
                            unsound_flips += 1;
                        }
                    }
                    SendMode::ReceiversAwaiting => {
                        // Clean schedules only use Eq. 2 where it is
                        // sound, so the flipped General stage must be
                        // reported as pessimistic under strict modes.
                        assert!(eq2_ok, "{alg} p={p} stage {si} was unsound already");
                        assert!(
                            report
                                .with_code(Code::PessimisticMode)
                                .any(|d| d.stage == Some(si)),
                            "{alg} p={p} stage {si} -> arrival:\n{report}"
                        );
                    }
                }
                flips += 1;
            }
        }
    }
    assert!(flips > 40, "exercised {flips} flips");
    assert!(unsound_flips > 20, "only {unsound_flips} unsound flips");
}

/// The analyzer's standing true positive: n-way dissemination's truncated
/// last stage makes middle-stage signals redundant at wrap-heavy sizes.
/// Pin one verified instance (4-way, P = 20: every stage-1 distance-4 and
/// distance-8 signal is dead) so the discovery cannot silently regress.
#[test]
fn nway_wrap_redundancy_stays_detected() {
    let cfg = AnalyzeConfig {
        progress: false,
        roundtrip: false,
        ..AnalyzeConfig::default()
    };
    let report = analyze_schedule(&full_schedule(Algorithm::NWay(4), 20), &cfg);
    let dead: Vec<_> = report.with_code(Code::DeadSignal).collect();
    assert_eq!(dead.len(), 40, "{report}");
    assert!(dead.iter().all(|d| d.stage == Some(1)));
    assert!(dead.iter().all(|d| {
        let (i, j) = (d.rank.unwrap(), d.partner.unwrap());
        let dist = (j + 20 - i) % 20;
        dist == 4 || dist == 8
    }));
    // And the barrier itself still synchronizes — dead, not broken.
    assert!(!report.has_code(Code::NonBarrier));
}

/// Analyzing a tuned hybrid after a hostile signal drop fails loudly —
/// the end-to-end shape of the CI gate.
#[test]
fn tuned_hybrid_mutant_is_flagged() {
    let machine = MachineSpec::dual_quad_cluster(4);
    let p = 32;
    let profile = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::RoundRobin, p);
    let members: Vec<usize> = (0..p).collect();
    let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
    let schedule = tuned.schedule;
    let (si, edge) = schedule
        .stages()
        .iter()
        .enumerate()
        .find_map(|(si, s)| s.matrix.edges().next().map(|e| (si, e)))
        .expect("tuned schedule has signals");
    let mutant = drop_signal(&schedule, si, edge);
    let report = analyze_schedule(&mutant, &AnalyzeConfig::default());
    assert!(
        report.has_code(Code::NonBarrier) || report.has_code(Code::DeadSignal),
        "{report}"
    );
}
