//! Executing compiled rank programs on OS threads.

use crate::signal::SignalBoard;
use hbar_core::codegen::RankProgram;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Executes a set of compiled rank programs over real threads.
pub struct ThreadExecutor {
    programs: Vec<RankProgram>,
    board: SignalBoard,
}

/// Timing result of one execution batch.
#[derive(Clone, Debug)]
pub struct ExecTiming {
    /// Wall-clock time from the common origin (taken once, before the
    /// threads are released) until each rank finished its iterations.
    /// A shared origin keeps the staggered-delay property sound even on
    /// heavily oversubscribed machines, at the price of counting thread
    /// release skew into every rank's time.
    pub per_rank: Vec<Duration>,
    /// Number of barrier iterations executed.
    pub iterations: usize,
}

impl ExecTiming {
    /// The slowest rank's total time (the batch makespan).
    pub fn makespan(&self) -> Duration {
        self.per_rank.iter().copied().max().unwrap_or_default()
    }

    /// Mean time per barrier execution at the slowest rank.
    pub fn per_barrier(&self) -> Duration {
        self.makespan() / self.iterations.max(1) as u32
    }
}

impl ThreadExecutor {
    /// Creates an executor; programs must be indexed by rank `0..p` in
    /// order (as produced by
    /// [`compile_schedule`](hbar_core::codegen::compile_schedule)).
    ///
    /// # Panics
    /// Panics if programs are not densely rank-ordered, or reference
    /// out-of-range partners.
    pub fn new(programs: Vec<RankProgram>) -> Self {
        let p = programs.len();
        for (idx, prog) in programs.iter().enumerate() {
            assert_eq!(prog.rank, idx, "programs must be rank-ordered");
            for step in &prog.steps {
                for &x in step.sends.iter().chain(&step.recvs) {
                    assert!(x < p, "rank {idx} references out-of-range partner {x}");
                    assert_ne!(x, idx, "rank {idx} references itself");
                }
            }
        }
        ThreadExecutor {
            programs,
            board: SignalBoard::new(p),
        }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.programs.len()
    }

    /// Runs `iterations` back-to-back barrier executions on `p` threads
    /// and returns per-rank timings. `pre_run(rank)` is invoked on each
    /// thread after the common start line but before its iterations —
    /// used to inject staggered entry delays (§VI check).
    pub fn run(&mut self, iterations: usize, pre_run: impl Fn(usize) + Sync) -> ExecTiming {
        assert!(iterations > 0, "need at least one iteration");
        let p = self.p();
        let start_line = Barrier::new(p);
        let board = &self.board;
        let programs = &self.programs;
        // Per-(pair) expected counts are derived from monotonic totals, so
        // this method can be called repeatedly; we track a base offset.
        let base_sends: Vec<Vec<u64>> = programs
            .iter()
            .map(|prog| {
                (0..p)
                    .map(|dst| board.signal_count(prog.rank, dst))
                    .collect()
            })
            .collect();

        let mut per_rank = vec![Duration::ZERO; p];
        let origin = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = programs
                .iter()
                .enumerate()
                .map(|(rank, prog)| {
                    let start_line = &start_line;
                    let pre_run = &pre_run;
                    let base = &base_sends;
                    scope.spawn(move || {
                        // Local monotonic counters (offsets past prior runs).
                        let mut sent: Vec<u64> = base[rank].clone();
                        let mut seen: Vec<u64> =
                            (0..p).map(|src| board.signal_count(src, rank)).collect();
                        start_line.wait();
                        pre_run(rank);
                        for _ in 0..iterations {
                            for step in &prog.steps {
                                for &dst in &step.sends {
                                    sent[dst] += 1;
                                    board.signal(rank, dst);
                                }
                                for &src in &step.recvs {
                                    seen[src] += 1;
                                    board.consume(src, rank, seen[src]);
                                }
                            }
                            // Leave the barrier once every synchronous
                            // send of this iteration has been consumed.
                            for step in &prog.steps {
                                for &dst in &step.sends {
                                    board.await_ack(rank, dst, sent[dst]);
                                }
                            }
                        }
                        (rank, origin.elapsed())
                    })
                })
                .collect();
            for h in handles {
                let (rank, d) = h.join().expect("executor thread panicked");
                per_rank[rank] = d;
            }
        });
        ExecTiming {
            per_rank,
            iterations,
        }
    }

    /// Convenience: run `iterations` barriers with no entry delays and
    /// return the mean per-barrier time at the slowest rank.
    pub fn time_barrier(&mut self, iterations: usize) -> Duration {
        self.run(iterations, |_| {}).per_barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_core::algorithms::Algorithm;
    use hbar_core::codegen::compile_schedule;

    fn executor_for(alg: Algorithm, p: usize) -> ThreadExecutor {
        let members: Vec<usize> = (0..p).collect();
        let sched = alg.full_schedule(p, &members);
        ThreadExecutor::new(compile_schedule(&sched).unwrap())
    }

    #[test]
    fn all_paper_algorithms_execute() {
        for alg in Algorithm::PAPER_SET {
            for p in [2, 3, 4, 7] {
                let mut ex = executor_for(alg, p);
                let t = ex.time_barrier(50);
                assert!(t > Duration::ZERO, "{alg} p={p}");
            }
        }
    }

    #[test]
    fn repeated_run_calls_share_the_board() {
        let mut ex = executor_for(Algorithm::Dissemination, 4);
        let a = ex.run(10, |_| {});
        let b = ex.run(10, |_| {});
        assert_eq!(a.iterations, 10);
        assert!(b.makespan() > Duration::ZERO);
    }

    #[test]
    fn staggered_entry_blocks_everyone() {
        // If rank 2 sleeps 25 ms before entering, no rank may finish the
        // barrier in less (the synchronization property).
        let mut ex = executor_for(Algorithm::Tree, 4);
        let delay = Duration::from_millis(25);
        let timing = ex.run(1, |rank| {
            if rank == 2 {
                std::thread::sleep(delay);
            }
        });
        for (r, d) in timing.per_rank.iter().enumerate() {
            assert!(*d >= delay, "rank {r} exited after {d:?} < {delay:?}");
        }
    }

    #[test]
    fn non_barrier_schedule_lets_ranks_escape() {
        // Arrival-only tree: the root waits for everyone, but leaf ranks
        // escape immediately even when another leaf is delayed.
        use hbar_core::schedule::BarrierSchedule;
        let p = 4;
        let members: Vec<usize> = (0..p).collect();
        let arrival = Algorithm::Tree.arrival_embedded(p, &members);
        let mut sched = BarrierSchedule::new(p);
        for m in arrival {
            sched.push(hbar_core::schedule::Stage::arrival(m));
        }
        let mut ex = ThreadExecutor::new(compile_schedule(&sched).unwrap());
        // Generous delay: rank 1's "early escape" must beat it even when
        // the host is oversubscribed and thread release is skewed.
        let delay = Duration::from_millis(150);
        let timing = ex.run(1, |rank| {
            if rank == 3 {
                std::thread::sleep(delay);
            }
        });
        // Rank 1 only signals rank 0 in stage 0; it never hears about 3.
        assert!(timing.per_rank[1] < delay, "rank 1 should escape early");
        // Rank 0 transitively waits on rank 3's arrival.
        assert!(timing.per_rank[0] >= delay);
    }

    #[test]
    fn per_barrier_divides_by_iterations() {
        let mut ex = executor_for(Algorithm::Linear, 3);
        let t = ex.run(100, |_| {});
        assert_eq!(t.per_barrier(), t.makespan() / 100);
    }

    #[test]
    #[should_panic(expected = "rank-ordered")]
    fn unordered_programs_rejected() {
        let members: Vec<usize> = (0..3).collect();
        let mut progs = compile_schedule(&Algorithm::Linear.full_schedule(3, &members)).unwrap();
        progs.swap(0, 1);
        ThreadExecutor::new(progs);
    }
}
