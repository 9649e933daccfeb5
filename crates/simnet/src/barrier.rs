//! Executing compiled barriers on the simulator, and the §VI
//! synchronization check.
//!
//! "Execution amounts to each participating process looping over the
//! required number of stages, issuing nonblocking, synchronized signals
//! according to the dependencies of the stage (with `MPI_Issend`), and
//! awaiting completion of all issued requests." Here a stage awaits only
//! its receives, and a process awaits its synchronous sends once, when it
//! leaves the barrier (DESIGN.md §9): the signals a rank receives are what
//! the Eq. 3 closure reads, and an acknowledgement adds nothing to it.

use crate::program::{Instr, Program};
use crate::world::SimWorld;
use crate::{ns_to_sec, Time};
use hbar_core::codegen::{compile_schedule, RankProgram};
use hbar_core::schedule::BarrierSchedule;

/// Converts one compiled rank program into a simulator program, one
/// barrier long: per step, post receives, issue synchronous sends, wait
/// for the receives; then wait for the sends. A rank with no steps gets an
/// empty program.
pub fn sim_program(program: &RankProgram) -> Program {
    if program.steps.is_empty() {
        return Program::new();
    }
    let len: usize = program
        .steps
        .iter()
        .map(|step| step.recvs.len() + step.sends.len() + 1)
        .sum();
    let mut p = Program::with_capacity(len + 1);
    for step in &program.steps {
        for &src in &step.recvs {
            p.push_irecv(src);
        }
        for &dst in &step.sends {
            p.push_issend(dst);
        }
        p.push_wait_recvs();
    }
    p.push_wait_all();
    p
}

/// Simulator programs for every rank of a schedule, executing the barrier
/// `reps` times back-to-back, the way the measurement loops run it: each
/// program is one barrier body (see [`sim_program`]) run `reps` times
/// (see [`Program::set_reps`]), so its length does not grow with `reps`.
///
/// # Panics
/// Panics if `reps` is 0, or if the schedule fails codegen validation
/// (see [`compile_schedule`]); impossible for schedules built through the
/// `BarrierSchedule` API.
pub fn schedule_programs(schedule: &BarrierSchedule, reps: usize) -> Vec<Program> {
    compile_schedule(schedule)
        .expect("schedule passes codegen validation")
        .iter()
        .map(|rp| sim_program(rp).repeated(reps))
        .collect()
}

/// Measures the mean execution time (seconds) of a barrier schedule on
/// `world`: `reps` back-to-back executions, makespan divided by `reps`.
///
/// # Panics
/// Panics if the schedule's rank count differs from the world's, or if
/// execution deadlocks (impossible for verified barrier schedules).
pub fn measure_schedule(world: &mut SimWorld, schedule: &BarrierSchedule, reps: usize) -> f64 {
    assert_eq!(
        schedule.n(),
        world.p(),
        "schedule/world rank count mismatch"
    );
    assert!(reps > 0, "need at least one repetition");
    let programs = schedule_programs(schedule, reps);
    let result = world
        .run(&programs)
        .expect("verified barrier cannot deadlock");
    ns_to_sec(result.makespan()) / reps as f64
}

/// Result of the staggered-delay check for one delayed rank.
#[derive(Clone, Debug)]
pub struct DelayCheckRun {
    /// The rank that entered the barrier late.
    pub delayed_rank: usize,
    /// Every rank's exit time (ns).
    pub finish: Vec<Time>,
}

/// The §VI correctness validation: "each algorithm was tested P times …
/// with each of the P participants introducing a 1-second delay before
/// calling the barrier. Observing the expected delay in the execution
/// time at every process verifies that all processes are actually
/// synchronized."
///
/// Runs the schedule once per delayed rank and returns whether every rank
/// observed at least the injected delay in every run (plus the runs, for
/// diagnostics).
pub fn staggered_delay_check(
    world: &mut SimWorld,
    schedule: &BarrierSchedule,
    delay_ns: Time,
) -> (bool, Vec<DelayCheckRun>) {
    assert_eq!(
        schedule.n(),
        world.p(),
        "schedule/world rank count mismatch"
    );
    // One repetition: the delay goes in front of the body, which a
    // repeated program would run before every barrier.
    let mut programs = schedule_programs(schedule, 1);
    let mut runs = Vec::with_capacity(world.p());
    let mut all_ok = true;
    for delayed in 0..world.p() {
        // Only the delayed rank's program differs from run to run: put
        // the delay in front of it for this run and take it out again.
        programs[delayed]
            .instrs
            .insert(0, Instr::Delay { ns: delay_ns });
        let result = world
            .run(&programs)
            .expect("verified barrier cannot deadlock");
        programs[delayed].instrs.remove(0);
        all_ok &= result.finish.iter().all(|&f| f >= delay_ns);
        runs.push(DelayCheckRun {
            delayed_rank: delayed,
            finish: result.finish,
        });
    }
    (all_ok, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use crate::world::SimConfig;
    use hbar_core::algorithms::Algorithm;
    use hbar_core::schedule::Stage;
    use hbar_matrix::SparseBoolMatrix;
    use hbar_topo::machine::MachineSpec;
    use hbar_topo::mapping::RankMapping;

    fn world(machine: MachineSpec, p: usize) -> SimWorld {
        SimWorld::new(SimConfig::exact(machine, RankMapping::RoundRobin), p)
    }

    #[test]
    fn all_paper_algorithms_execute_without_deadlock() {
        let machine = MachineSpec::dual_quad_cluster(2);
        for p in [2usize, 5, 9, 16] {
            let members: Vec<usize> = (0..p).collect();
            for alg in Algorithm::PAPER_SET {
                let sched = alg.full_schedule(p, &members);
                let mut w = world(machine.clone(), p);
                let t = measure_schedule(&mut w, &sched, 3);
                assert!(t > 0.0, "{alg} p={p}");
            }
        }
    }

    #[test]
    fn staggered_delay_verifies_synchronization() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let p = 9;
        let members: Vec<usize> = (0..p).collect();
        for alg in Algorithm::PAPER_SET {
            let sched = alg.full_schedule(p, &members);
            let mut w = world(machine.clone(), p);
            let delay = 50_000_000; // 50 ms virtual
            let (ok, runs) = staggered_delay_check(&mut w, &sched, delay);
            assert!(
                ok,
                "{alg}: some rank exited before the delayed rank entered"
            );
            assert_eq!(runs.len(), p);
        }
    }

    #[test]
    fn broken_schedule_fails_delay_check() {
        // Arrival-only linear "barrier": ranks 1..p signal 0 and leave —
        // they do NOT wait for stragglers, so the check must fail when a
        // *different* rank is delayed.
        let p = 4;
        let mut sched = BarrierSchedule::new(p);
        let mut s0 = SparseBoolMatrix::zeros(p);
        for i in 1..p {
            s0.set(i, 0, true);
        }
        sched.push(Stage::arrival(s0));
        assert!(!sched.is_barrier());
        let mut w = world(MachineSpec::dual_quad_cluster(1), p);
        let (ok, _) = staggered_delay_check(&mut w, &sched, 50_000_000);
        assert!(!ok);
    }

    #[test]
    fn barrier_times_are_in_paper_magnitude() {
        // 16 ranks over 2 quad nodes: all three algorithms should land in
        // the 10 µs – 2 ms band the paper's figures span.
        let machine = MachineSpec::dual_quad_cluster(2);
        let members: Vec<usize> = (0..16).collect();
        for alg in Algorithm::PAPER_SET {
            let sched = alg.full_schedule(16, &members);
            let mut w = world(machine.clone(), 16);
            let t = measure_schedule(&mut w, &sched, 5);
            assert!((1e-5..2e-3).contains(&t), "{alg}: {t}");
        }
    }

    #[test]
    fn linear_is_slowest_at_scale() {
        let machine = MachineSpec::dual_quad_cluster(8);
        let p = 64;
        let members: Vec<usize> = (0..p).collect();
        let time_for = |alg: Algorithm| {
            let sched = alg.full_schedule(p, &members);
            let mut w = world(machine.clone(), p);
            measure_schedule(&mut w, &sched, 3)
        };
        let lin = time_for(Algorithm::Linear);
        let tree = time_for(Algorithm::Tree);
        let diss = time_for(Algorithm::Dissemination);
        assert!(lin > tree, "linear {lin} !> tree {tree}");
        assert!(lin > diss, "linear {lin} !> dissemination {diss}");
    }

    #[test]
    fn repeated_execution_amortizes() {
        let machine = MachineSpec::dual_quad_cluster(1);
        let members: Vec<usize> = (0..8).collect();
        let sched = Algorithm::Tree.full_schedule(8, &members);
        let mut w = world(machine, 8);
        let t1 = measure_schedule(&mut w, &sched, 1);
        let t10 = measure_schedule(&mut w, &sched, 10);
        // Mean per-barrier time should be stable within 2x.
        assert!(t10 < t1 * 2.0 && t1 < t10 * 2.0, "{t1} vs {t10}");
    }

    #[test]
    fn empty_rank_program_is_passive() {
        // A schedule over 3 ranks where rank 2 never participates.
        let mut sched = BarrierSchedule::new(3);
        sched.push(Stage::arrival(SparseBoolMatrix::from_edges(3, [(1, 0)])));
        sched.push(Stage::departure(SparseBoolMatrix::from_edges(3, [(0, 1)])));
        let mut w = world(MachineSpec::dual_quad_cluster(1), 3);
        let programs = schedule_programs(&sched, 1);
        assert!(programs[2].is_empty());
        let res = w.run(&programs).unwrap();
        assert_eq!(res.finish[2], 0);
    }

    #[test]
    fn noisy_execution_still_synchronizes() {
        let cfg = SimConfig {
            machine: MachineSpec::dual_quad_cluster(2),
            mapping: RankMapping::RoundRobin,
            noise: NoiseModel::realistic(23),
        };
        let mut w = SimWorld::new(cfg, 12);
        let members: Vec<usize> = (0..12).collect();
        let sched = Algorithm::Dissemination.full_schedule(12, &members);
        let (ok, _) = staggered_delay_check(&mut w, &sched, 10_000_000);
        assert!(ok);
    }
}
