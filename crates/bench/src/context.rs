//! Shared experiment context: machines, cached profiles, measurement.

use hbar_core::schedule::BarrierSchedule;
use hbar_simnet::barrier::measure_schedule;
use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::{measure_profile_decomposed, LocalExecutor, NoiseModel, SweepConfig};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use std::collections::HashMap;

/// An experiment platform: one of the paper's clusters plus the knobs the
/// harness needs (noise, profiling schedule, repetition counts).
pub struct ExperimentContext {
    pub machine: MachineSpec,
    pub mapping: RankMapping,
    pub noise: NoiseModel,
    pub profiling: ProfilingConfig,
    /// Back-to-back barrier executions averaged per measurement.
    pub measure_reps: usize,
    /// Profiles measured so far, keyed by the number of nodes the
    /// round-robin placement occupies. Within one bucket the placement of
    /// each rank is independent of P, so one full-bucket profile serves
    /// every P in the bucket by truncation.
    profile_cache: HashMap<usize, TopologyProfile>,
}

impl ExperimentContext {
    /// The paper's cluster A: up to 8 nodes of dual quad-cores.
    pub fn cluster_a(quick: bool) -> Self {
        Self::new(MachineSpec::dual_quad_cluster(8), quick, 0xA11CE)
    }

    /// The paper's cluster B: up to 10 nodes of dual hex-cores.
    pub fn cluster_b(quick: bool) -> Self {
        Self::new(MachineSpec::dual_hex_cluster(10), quick, 0xB0B)
    }

    /// A custom platform.
    pub fn new(machine: MachineSpec, quick: bool, seed: u64) -> Self {
        ExperimentContext {
            machine,
            mapping: RankMapping::RoundRobin,
            noise: NoiseModel::realistic(seed),
            profiling: if quick {
                ProfilingConfig::fast()
            } else {
                ProfilingConfig::default()
            },
            measure_reps: if quick { 5 } else { 25 },
            profile_cache: HashMap::new(),
        }
    }

    /// Deterministic variant (no noise), for tests that need exactness.
    pub fn exact(machine: MachineSpec) -> Self {
        ExperimentContext {
            machine,
            mapping: RankMapping::RoundRobin,
            noise: NoiseModel::none(),
            profiling: ProfilingConfig::fast(),
            measure_reps: 3,
            profile_cache: HashMap::new(),
        }
    }

    /// Cores per node of the platform.
    pub fn cores_per_node(&self) -> usize {
        self.machine.cores_per_node()
    }

    /// Maximum rank count.
    pub fn max_p(&self) -> usize {
        self.machine.total_cores()
    }

    /// Number of nodes the round-robin placement uses for `p` ranks.
    fn bucket(&self, p: usize) -> usize {
        p.div_ceil(self.cores_per_node())
            .min(self.machine.nodes)
            .max(1)
    }

    /// The measured topology profile for `p` ranks under the context's
    /// placement. Profiles are measured per node-count bucket at the
    /// bucket's full population and truncated — valid because round-robin
    /// pins rank `r` to the same core for every `p` with the same node
    /// count (verified in tests).
    pub fn profile_for(&mut self, p: usize) -> TopologyProfile {
        assert!(p >= 2 && p <= self.max_p(), "p={p} out of range");
        let bucket = self.bucket(p);
        let bucket_max = (bucket * self.cores_per_node()).min(self.max_p());
        if !self.profile_cache.contains_key(&bucket) {
            let (machine, noise) = (&self.machine, self.noise);
            let (prof, _) = measure_profile_decomposed(
                machine,
                &self.mapping,
                bucket_max,
                noise,
                &SweepConfig::exact(self.profiling.clone()),
                &mut LocalExecutor::new(machine.clone(), noise, self.profiling.clone()),
            )
            .expect("local execution is infallible");
            self.profile_cache.insert(bucket, prof);
        }
        let prof = &self.profile_cache[&bucket];
        let mut truncated = prof.truncate(p);
        truncated.p = p;
        truncated
    }

    /// Measures the mean execution time (seconds) of a schedule for `p`
    /// ranks on the simulated platform.
    pub fn measure_barrier(&self, schedule: &BarrierSchedule, p: usize) -> f64 {
        assert_eq!(
            schedule.n(),
            p,
            "schedule covers {} ranks, expected {p}",
            schedule.n()
        );
        let cfg = SimConfig {
            machine: self.machine.clone(),
            mapping: self.mapping.clone(),
            noise: self.noise,
        };
        let mut world = SimWorld::new(cfg, p);
        measure_schedule(&mut world, schedule, self.measure_reps)
    }

    /// The default process-count sweep of a figure: every `step`-th count
    /// from 2 to the machine's capacity (the paper plots every count; use
    /// a larger step for quick runs).
    pub fn sweep(&self, step: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (2..=self.max_p()).step_by(step.max(1)).collect();
        if v.last() != Some(&self.max_p()) {
            v.push(self.max_p());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_placement_is_bucket_stable() {
        // The property the profile cache relies on: for any two P in the
        // same node-count bucket, rank placements agree on the prefix.
        let machine = MachineSpec::dual_quad_cluster(8);
        let mapping = RankMapping::RoundRobin;
        for (p_small, p_big) in [(17, 24), (9, 16), (25, 32), (57, 64)] {
            let small = mapping.place(&machine, p_small);
            let big = mapping.place(&machine, p_big);
            assert_eq!(&big[..p_small], &small[..], "bucket ({p_small},{p_big})");
        }
    }

    #[test]
    fn profile_cache_reuses_buckets() {
        let mut ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(2));
        let a = ctx.profile_for(9);
        let b = ctx.profile_for(12);
        assert_eq!(ctx.profile_cache.len(), 1, "same bucket measured once");
        assert_eq!(a.cost.o[(0, 1)], b.cost.o[(0, 1)]);
        let _ = ctx.profile_for(8); // 1-node bucket
        assert_eq!(ctx.profile_cache.len(), 2);
    }

    #[test]
    fn truncated_profile_has_requested_size() {
        let mut ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(2));
        let prof = ctx.profile_for(11);
        assert_eq!(prof.p, 11);
        assert_eq!(prof.cost.p(), 11);
    }

    #[test]
    fn sweep_covers_range_and_endpoint() {
        let ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(2));
        let s = ctx.sweep(3);
        assert_eq!(s.first(), Some(&2));
        assert_eq!(s.last(), Some(&16));
        let s1 = ctx.sweep(1);
        assert_eq!(s1.len(), 15);
    }

    #[test]
    fn measure_barrier_runs() {
        use hbar_core::algorithms::Algorithm;
        let ctx = ExperimentContext::exact(MachineSpec::dual_quad_cluster(1));
        let members: Vec<usize> = (0..4).collect();
        let sched = Algorithm::Tree.full_schedule(4, &members);
        let t = ctx.measure_barrier(&sched, 4);
        assert!(t > 0.0);
    }
}
