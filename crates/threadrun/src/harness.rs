//! Correctness and timing harnesses for thread-backed barriers.

use crate::executor::ThreadExecutor;
use hbar_core::codegen::compile_schedule;
use hbar_core::schedule::BarrierSchedule;
use std::time::Duration;

/// Result of one staggered-delay run on real threads.
#[derive(Clone, Debug)]
pub struct ThreadDelayRun {
    pub delayed_rank: usize,
    pub per_rank: Vec<Duration>,
}

/// The §VI synchronization check on real threads: once per rank, that
/// rank sleeps `delay` before entering the barrier; every rank must take
/// at least `delay` to exit. Returns overall success plus the runs.
///
/// Real scheduling makes timing approximate, but only in the direction
/// that cannot cause false failures: sleeping at least `delay` is
/// guaranteed by the OS, and any rank exiting earlier than `delay` has
/// provably not synchronized with the delayed rank.
pub fn staggered_delay_check(
    schedule: &BarrierSchedule,
    delay: Duration,
) -> (bool, Vec<ThreadDelayRun>) {
    let mut executor = ThreadExecutor::new(
        compile_schedule(schedule).expect("schedule passes codegen validation"),
    );
    let p = executor.p();
    let mut runs = Vec::with_capacity(p);
    let mut all_ok = true;
    for delayed in 0..p {
        let timing = executor.run(1, |rank| {
            if rank == delayed {
                std::thread::sleep(delay);
            }
        });
        all_ok &= timing.per_rank.iter().all(|&d| d >= delay);
        runs.push(ThreadDelayRun {
            delayed_rank: delayed,
            per_rank: timing.per_rank,
        });
    }
    (all_ok, runs)
}

/// Mean per-barrier execution time of a schedule on real threads.
pub fn time_schedule(schedule: &BarrierSchedule, iterations: usize) -> Duration {
    ThreadExecutor::new(compile_schedule(schedule).expect("schedule passes codegen validation"))
        .time_barrier(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_core::algorithms::Algorithm;
    use hbar_core::schedule::Stage;
    use hbar_matrix::SparseBoolMatrix;

    #[test]
    fn paper_algorithms_pass_delay_check_on_threads() {
        let p = 4;
        let members: Vec<usize> = (0..p).collect();
        for alg in Algorithm::PAPER_SET {
            let sched = alg.full_schedule(p, &members);
            let (ok, runs) = staggered_delay_check(&sched, Duration::from_millis(15));
            assert!(ok, "{alg} failed the staggered delay check: {runs:?}");
        }
    }

    #[test]
    fn arrival_only_fails_delay_check_on_threads() {
        let p = 3;
        let mut sched = BarrierSchedule::new(p);
        let mut s0 = SparseBoolMatrix::zeros(p);
        for i in 1..p {
            s0.set(i, 0, true);
        }
        sched.push(Stage::arrival(s0));
        let (ok, _) = staggered_delay_check(&sched, Duration::from_millis(20));
        assert!(!ok, "arrival-only pattern must fail");
    }

    #[test]
    fn timing_scales_with_iterations_sanely() {
        let members: Vec<usize> = (0..4).collect();
        let sched = Algorithm::Dissemination.full_schedule(4, &members);
        let t = time_schedule(&sched, 200);
        assert!(t > Duration::ZERO);
        assert!(
            t < Duration::from_millis(50),
            "per-barrier {t:?} absurdly slow"
        );
    }
}
