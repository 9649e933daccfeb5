//! User-facing simulation worlds.

use crate::engine::{Engine, EngineResult, SimDeadlock};
use crate::noise::{NoiseModel, NoiseState};
use crate::program::Program;
use crate::Time;
use hbar_topo::machine::{CoreId, MachineSpec};
use hbar_topo::mapping::RankMapping;

/// Configuration of a simulated machine plus rank placement.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    pub machine: MachineSpec,
    pub mapping: RankMapping,
    pub noise: NoiseModel,
}

impl SimConfig {
    /// Deterministic configuration (no noise).
    pub fn exact(machine: MachineSpec, mapping: RankMapping) -> Self {
        SimConfig {
            machine,
            mapping,
            noise: NoiseModel::none(),
        }
    }
}

/// Result of one simulated run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-rank completion time of its whole program (ns).
    pub finish: Vec<Time>,
    /// Per-rank recorded marks.
    pub marks: Vec<Vec<(String, Time)>>,
    /// Events processed.
    pub events: u64,
}

impl SimResult {
    /// Latest completion across ranks (ns).
    pub fn makespan(&self) -> Time {
        self.finish.iter().copied().max().unwrap_or(0)
    }
}

/// A world of `p` ranks pinned to cores, ready to run programs.
///
/// The world owns **one** [`Engine`] whose arenas are built at
/// construction and reused by every [`run`](Self::run): programs are
/// borrowed per run, no ground truth or core list is cloned, and noise
/// draws are decorrelated across runs via an internal run counter, so
/// repeated runs model repeated benchmark executions at amortized cost.
pub struct SimWorld {
    config: SimConfig,
    engine: Engine,
    run_counter: u64,
}

impl SimWorld {
    /// Creates a world for ranks `0..p`.
    ///
    /// # Panics
    /// Panics if the mapping cannot place `p` ranks on the machine.
    pub fn new(config: SimConfig, p: usize) -> Self {
        let cores = config.mapping.cores(&config.machine, p);
        let engine = Engine::new(cores, config.machine.ground_truth.clone());
        SimWorld {
            config,
            engine,
            run_counter: 0,
        }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.engine.p()
    }

    /// The physical placement of each rank.
    pub fn cores(&self) -> &[CoreId] {
        self.engine.cores()
    }

    /// The machine this world simulates.
    pub fn machine(&self) -> &MachineSpec {
        &self.config.machine
    }

    /// Runs one program per rank to completion on the reused engine.
    ///
    /// # Panics
    /// Panics if the number of programs differs from the rank count.
    pub fn run(&mut self, programs: &[Program]) -> Result<SimResult, SimDeadlock> {
        self.run_inner(programs, false).map(|(result, _)| result)
    }

    /// Like [`run`](Self::run) but also records a per-message
    /// [`Trace`](crate::trace::Trace) — the instrumentation §VIII of the
    /// paper assumes for incremental cost updates at run time.
    pub fn run_traced(
        &mut self,
        programs: &[Program],
    ) -> Result<(SimResult, crate::trace::Trace), SimDeadlock> {
        self.run_inner(programs, true)
            .map(|(result, trace)| (result, trace.expect("trace was enabled")))
    }

    /// Binds `programs` for the lean benchmark runs below, which re-run
    /// the bound set without validating or interning it again. The caller
    /// passes those runs the same, unmodified slice.
    pub(crate) fn bind(&mut self, programs: &[Program]) {
        self.engine.bind(programs);
    }

    /// Lean run for benchmark loops over the [bound](Self::bind) set:
    /// advances the run counter and executes like [`run`](Self::run), but
    /// returns only rank 0's finish time so the per-run path performs no
    /// result-vector allocation.
    pub(crate) fn run_finish0(&mut self, programs: &[Program]) -> Result<Time, SimDeadlock> {
        let noise = self.next_noise();
        self.engine.execute(programs, noise)?;
        Ok(self.engine.finish_of(0))
    }

    /// Like [`run_finish0`](Self::run_finish0) but returns the span from
    /// rank 0's first recorded `Mark` to its finish — the simulated
    /// analogue of reading `MPI_Wtime` after a synchronizing handshake,
    /// so program setup stays out of the measured interval.
    pub(crate) fn run_span0(&mut self, programs: &[Program]) -> Result<Time, SimDeadlock> {
        let noise = self.next_noise();
        self.engine.execute(programs, noise)?;
        Ok(self.engine.finish_of(0) - self.engine.first_mark_of(0))
    }

    /// Advances the run counter by `runs` without running anything, so the
    /// next run draws the noise it would have drawn after `runs` others:
    /// a benchmark that leaves out part of a fixed schedule measures the
    /// rest under the same draws as the whole schedule would.
    pub(crate) fn skip_runs(&mut self, runs: u64) {
        self.run_counter += runs;
    }

    /// The next run's noise state: runs are decorrelated by their index.
    fn next_noise(&mut self) -> NoiseState {
        self.run_counter += 1;
        NoiseState::new(self.config.noise, self.run_counter)
    }

    fn run_inner(
        &mut self,
        programs: &[Program],
        traced: bool,
    ) -> Result<(SimResult, Option<crate::trace::Trace>), SimDeadlock> {
        let noise = self.next_noise();
        if traced {
            self.engine.enable_trace();
        }
        self.engine.run(programs, noise).map(
            |EngineResult {
                 finish,
                 marks,
                 events,
                 trace,
             }| {
                (
                    SimResult {
                        finish,
                        marks,
                        events,
                    },
                    trace,
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    #[test]
    fn world_places_ranks() {
        let cfg = SimConfig::exact(MachineSpec::dual_quad_cluster(2), RankMapping::RoundRobin);
        let world = SimWorld::new(cfg, 16);
        assert_eq!(world.p(), 16);
        assert_eq!(world.cores()[0].node, 0);
        assert_eq!(world.cores()[1].node, 1);
    }

    #[test]
    fn deterministic_world_repeats_exactly() {
        let cfg = SimConfig::exact(MachineSpec::new(2, 1, 2), RankMapping::Block);
        let mut world = SimWorld::new(cfg, 4);
        let programs = vec![
            Program::new().issend(2).wait_all(),
            Program::new().issend(3).wait_all(),
            Program::new().irecv(0).wait_all(),
            Program::new().irecv(1).wait_all(),
        ];
        let a = world.run(&programs).unwrap();
        let b = world.run(&programs).unwrap();
        assert_eq!(a.finish, b.finish);
        assert!(a.makespan() > 0);
    }

    #[test]
    fn noisy_world_varies_between_runs_but_not_reconstructions() {
        let cfg = SimConfig {
            machine: MachineSpec::new(2, 1, 2),
            mapping: RankMapping::Block,
            noise: NoiseModel::realistic(11),
        };
        let programs = vec![
            Program::new().issend(2).wait_all(),
            Program::new().issend(3).wait_all(),
            Program::new().irecv(0).wait_all(),
            Program::new().irecv(1).wait_all(),
        ];
        let mut w1 = SimWorld::new(cfg.clone(), 4);
        let a = w1.run(&programs).unwrap();
        let b = w1.run(&programs).unwrap();
        assert_ne!(a.finish, b.finish, "noise must vary across runs");
        let mut w2 = SimWorld::new(cfg, 4);
        let a2 = w2.run(&programs).unwrap();
        assert_eq!(a.finish, a2.finish, "same seed and run index must repeat");
    }

    #[test]
    fn traced_run_records_message_lifecycle() {
        let cfg = SimConfig::exact(MachineSpec::new(2, 1, 1), RankMapping::Block);
        let mut world = SimWorld::new(cfg, 2);
        let programs = vec![
            Program::new().issend(1).wait_all(),
            Program::new().irecv(0).wait_all(),
        ];
        let (result, trace) = world.run_traced(&programs).unwrap();
        assert_eq!(trace.injected_messages(), 1);
        assert_eq!(trace.completed_messages(), 1);
        let pl = trace.pair_latencies();
        assert_eq!(pl.len(), 1);
        assert_eq!(pl[0].latencies.len(), 1);
        // The observed injection→consumption latency is the wire + NIC +
        // receiver path: strictly between zero and the full makespan.
        assert!(pl[0].latencies[0] > 0);
        assert!(pl[0].latencies[0] <= result.makespan());
        // The untraced path reports no trace but identical times.
        let again = world.run(&programs).unwrap();
        assert_eq!(again.finish, result.finish);
    }

    #[test]
    fn trace_conserves_barrier_signals() {
        use hbar_core::algorithms::Algorithm;
        let machine = MachineSpec::dual_quad_cluster(2);
        let p = 12;
        let members: Vec<usize> = (0..p).collect();
        let sched = Algorithm::Dissemination.full_schedule(p, &members);
        let mut world = SimWorld::new(SimConfig::exact(machine, RankMapping::RoundRobin), p);
        let programs = crate::barrier::schedule_programs(&sched, 1);
        let (_, trace) = world.run_traced(&programs).unwrap();
        assert_eq!(trace.injected_messages(), sched.total_signals());
        assert_eq!(trace.completed_messages(), sched.total_signals());
    }

    #[test]
    #[should_panic(expected = "one program per rank")]
    fn wrong_program_count_panics() {
        let cfg = SimConfig::exact(MachineSpec::new(1, 1, 2), RankMapping::Block);
        let mut world = SimWorld::new(cfg, 2);
        let _ = world.run(&[Program::new()]);
    }
}
