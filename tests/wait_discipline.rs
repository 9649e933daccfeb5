//! The execution discipline every backend shares — a step waits for its
//! receives alone, a rank for its synchronous sends once, at exit — held
//! against the analyzer's abstract machine (A011) and the §VI
//! staggered-delay check on both backends: the simulator, and the emitted
//! C run on threads (`tests/c/`).

mod c;

use hbarrier::analyze::{analyze_programs, Code};
use hbarrier::core::schedule::Stage;
use hbarrier::core::verify;
use hbarrier::prelude::*;
use hbarrier::simnet::barrier::{sim_program, staggered_delay_check};
use hbarrier::simnet::NoiseModel;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

const DELAY: Duration = Duration::from_millis(2);

/// A schedule over `n` ranks from random edge lists, self-signals and
/// out-of-range ranks dropped.
fn schedule_from(n: usize, stages: &[Vec<(usize, usize)>]) -> BarrierSchedule {
    let mut sched = BarrierSchedule::new(n);
    for edges in stages {
        let edges = edges
            .iter()
            .copied()
            .filter(|&(i, j)| i < n && j < n && i != j);
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(n, edges)));
    }
    sched
}

/// The schedule's first `keep` stages.
fn truncated(sched: &BarrierSchedule, keep: usize) -> BarrierSchedule {
    let mut out = BarrierSchedule::new(sched.n());
    for stage in sched.stages().iter().take(keep) {
        out.push(stage.clone());
    }
    out
}

/// Whether `programs` run to completion on a zero-noise simulator.
fn engine_completes(programs: &[RankProgram]) -> bool {
    let p = programs.len();
    let machine = MachineSpec::new(p.div_ceil(2), 1, 2);
    let mut world = SimWorld::new(SimConfig::exact(machine, RankMapping::RoundRobin), p);
    let sim: Vec<_> = programs.iter().map(sim_program).collect();
    world.run(&sim).is_ok()
}

/// The simulator's staggered-delay check, with and without noise; returns
/// the schedule's emitted C for the other backend.
fn synchronizes_on_the_simulator(sched: &BarrierSchedule, what: String) -> c::Source {
    let p = sched.n();
    let machine = MachineSpec::new(p.div_ceil(4), 2, 2);
    for noise in [NoiseModel::none(), NoiseModel::realistic(7)] {
        let cfg = SimConfig {
            machine: machine.clone(),
            mapping: RankMapping::Block,
            noise,
        };
        let (ok, _) = staggered_delay_check(&mut SimWorld::new(cfg, p), sched, 10_000_000);
        assert!(ok, "{what}: a rank left the simulated barrier early");
    }
    c::Source::emitted(what, "b", sched)
}

/// Every library algorithm and the tuned hybrid, at every P ≤ 16.
#[test]
fn verified_library_and_tuned_schedules_synchronize_on_both_backends() {
    let mut sources = Vec::new();
    for p in 2usize..=16 {
        let members: Vec<usize> = (0..p).collect();
        let machine = MachineSpec::new(p.div_ceil(4), 2, 2);
        let mut schedules: Vec<(String, BarrierSchedule)> = Algorithm::extended_set()
            .into_iter()
            .filter(|alg| alg.applicable(p))
            .map(|alg| (alg.to_string(), alg.full_schedule(p, &members)))
            .collect();
        for mapping in [RankMapping::Block, RankMapping::RoundRobin] {
            let profile = TopologyProfile::from_ground_truth_for(&machine, &mapping, p);
            let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
            schedules.push((format!("hybrid ({mapping:?})"), tuned.schedule));
        }
        for (name, sched) in &schedules {
            assert!(verify::is_barrier(sched), "{name} p={p}");
            sources.push(synchronizes_on_the_simulator(
                sched,
                format!("{name} p={p}"),
            ));
        }
    }
    c::build("library_and_tuned", &sources, &[]).assert_all_synchronize(DELAY);
}

/// Random schedules that verify (Eq. 3) synchronize on both backends:
/// 96 of them, drawn up front from a fixed seed (a draw that does not
/// verify is skipped), so that their C compiles as one unit.
#[test]
fn verified_random_schedules_synchronize_on_both_backends() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0047);
    let mut below = |n: usize| rng.random::<usize>() % n;
    let mut sources = Vec::new();
    for _ in 0..96 * 32 {
        if sources.len() == 96 {
            break;
        }
        let n = 2 + below(15);
        let stages: Vec<Vec<(usize, usize)>> = (0..3 + below(5))
            .map(|_| {
                (0..16 + below(48))
                    .map(|_| (below(16), below(16)))
                    .collect()
            })
            .collect();
        let sched = schedule_from(n, &stages);
        if verify::is_barrier(&sched) {
            sources.push(synchronizes_on_the_simulator(
                &sched,
                format!("random p={n}"),
            ));
        }
    }
    assert_eq!(sources.len(), 96, "too few draws verify");
    c::build("random", &sources, &[]).assert_all_synchronize(DELAY);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random schedules, and library barriers cut short, compiled; then
    /// the steps of a few ranks rotated, which can leave a receive
    /// waiting on a send that now comes after it. Counts stay matched, so
    /// the simulator completes exactly when A011 finds no deadlock.
    #[test]
    fn engine_completes_exactly_when_a011_is_clean(
        n in 2usize..9,
        stages in prop::collection::vec(prop::collection::vec((0usize..9, 0usize..9), 6..24), 3..7),
        library in (0usize..9, 0usize..8),
        rotations in prop::collection::vec((0usize..9, 0usize..6), 2..6),
    ) {
        let (alg_idx, keep) = library;
        let algs = Algorithm::extended_set();
        let sched = match algs.get(alg_idx) {
            Some(alg) if alg.applicable(n) => {
                let members: Vec<usize> = (0..n).collect();
                truncated(&alg.full_schedule(n, &members), keep)
            }
            _ => schedule_from(n, &stages),
        };
        let mut programs = compile_schedule(&sched).expect("compiles");
        for (rank, by) in rotations {
            if let Some(prog) = programs.get_mut(rank).filter(|p| !p.steps.is_empty()) {
                let len = prog.steps.len();
                prog.steps.rotate_left(by % len);
            }
        }
        let report = analyze_programs(n, &programs);
        prop_assert!(report.diagnostics.iter().all(|d| d.code == Code::Deadlock), "{report}");
        prop_assert_eq!(engine_completes(&programs), report.is_clean(), "{}", report);
    }
}
