//! The §VI staggered-delay synchronization validation, run across
//! algorithms and platforms (the paper ran it for every tested size).

use hbar_core::algorithms::Algorithm;
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_simnet::barrier::staggered_delay_check;
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::NoiseModel;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;

/// One delay-check verdict.
#[derive(Clone, Debug)]
pub struct DelayVerdict {
    pub label: String,
    pub p: usize,
    pub passed: bool,
}

/// Runs the staggered-delay check for the three paper algorithms plus the
/// tuned hybrid, at each process count, on the given machine.
pub fn run_delay_checks(
    machine: &MachineSpec,
    sizes: &[usize],
    delay_ns: u64,
) -> Vec<DelayVerdict> {
    let mut verdicts = Vec::new();
    for &p in sizes {
        let members: Vec<usize> = (0..p).collect();
        for alg in Algorithm::PAPER_SET {
            let sched = alg.full_schedule(p, &members);
            let mut world = world_for(machine, p);
            let (ok, _) = staggered_delay_check(&mut world, &sched, delay_ns);
            verdicts.push(DelayVerdict {
                label: alg.to_string(),
                p,
                passed: ok,
            });
        }
        let profile = TopologyProfile::from_ground_truth_for(machine, &RankMapping::RoundRobin, p);
        let tuned = tune_hybrid_costs(&profile.cost, &members, &TunerConfig::default());
        let mut world = world_for(machine, p);
        let (ok, _) = staggered_delay_check(&mut world, &tuned.schedule, delay_ns);
        verdicts.push(DelayVerdict {
            label: "hybrid".into(),
            p,
            passed: ok,
        });
    }
    verdicts
}

fn world_for(machine: &MachineSpec, p: usize) -> SimWorld {
    SimWorld::new(
        SimConfig {
            machine: machine.clone(),
            mapping: RankMapping::RoundRobin,
            noise: NoiseModel::none(),
        },
        p,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_pass_on_two_nodes() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let verdicts = run_delay_checks(&machine, &[5, 12], 20_000_000);
        assert_eq!(verdicts.len(), 8);
        for v in &verdicts {
            assert!(v.passed, "{} p={} failed", v.label, v.p);
        }
    }
}
