//! The tuner judged by what runs: on ROADMAP finding F4's grid, the
//! default tune executes no slower than 1.02 × the fastest hierarchy the
//! paper's tuner could force — linear, radix-2 dissemination or tree at
//! every level.
//!
//! "Executed" here is one isolated execution from a common start
//! (`measure_schedule(.., 1)`) in a zero-noise world on ground-truth
//! costs, the definition the model gates use. The figures and the
//! benchmark time back-to-back repetitions instead; until one definition
//! serves both (ROADMAP item 3), this gate uses the isolated one.

use hbarrier::prelude::*;
use hbarrier::simnet::barrier::measure_schedule;

/// Tolerance of the gate: 2 %.
const EPSILON: f64 = 0.02;

fn executed_us(machine: &MachineSpec, mapping: &RankMapping, schedule: &BarrierSchedule) -> f64 {
    let mut world = SimWorld::new(
        SimConfig::exact(machine.clone(), mapping.clone()),
        schedule.n(),
    );
    measure_schedule(&mut world, schedule, 1) * 1e6
}

#[test]
fn default_tune_runs_as_fast_as_the_best_forced_hierarchy() {
    let mut losses = Vec::new();
    for per_node in [8usize, 12] {
        for mapping in [RankMapping::Block, RankMapping::RoundRobin] {
            for p in [16usize, 32, 48, 64, 96, 120, 128, 256, 1024] {
                let machine = MachineSpec::new(p.div_ceil(per_node), 2, per_node / 2);
                let profile = TopologyProfile::from_ground_truth_for(&machine, &mapping, p);
                let members: Vec<usize> = (0..p).collect();
                let run = |cfg: &TunerConfig| {
                    let tuned = tune_hybrid_costs(&profile.cost, &members, cfg);
                    executed_us(&machine, &mapping, &tuned.schedule)
                };
                let tuned = run(&TunerConfig::default());
                let (best_alg, best) = [Algorithm::Linear, Algorithm::NWay(2), Algorithm::Tree]
                    .into_iter()
                    .map(|a| (a, run(&TunerConfig::forced(a))))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("three hierarchies");
                if tuned > best * (1.0 + EPSILON) {
                    losses.push(format!(
                        "{}, {mapping:?}, P = {p}: tuned {tuned:.1} µs > forced {best_alg} {best:.1} µs",
                        machine.name
                    ));
                }
            }
        }
    }
    assert!(
        losses.is_empty(),
        "{} of 36 cells lose:\n{}",
        losses.len(),
        losses.join("\n")
    );
}
