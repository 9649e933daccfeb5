//! The profiling sweep's executor boundary.
//!
//! `measure_profile_decomposed` and `measure_profile_compressed` hand
//! descriptor batches to any [`DescriptorExecutor`] and merge the answers
//! by descriptor id. The in-tree executor is the work-stealing
//! [`LocalExecutor`]; these tests hold the contract every other executor
//! (a timing wrapper, a distributed runner) relies on: an executor may
//! answer in any order without changing one bit of the profile, and an
//! answer that does not match the batch — short, duplicated, naming an id
//! that was never asked for — or an executor error ends the sweep with an
//! error instead of a profile.

use hbar_simnet::sweep::{
    DescriptorExecutor, LocalExecutor, PairSample, PairWorkDescriptor, SweepConfig, SweepError,
    SweepReport, WorkKind,
};
use hbar_simnet::{measure_profile_compressed, measure_profile_decomposed, NoiseModel};
use hbar_simnet::{SpillConfig, SpillReport};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use hbar_topo::CompressedCostModel;

const P: usize = 16;

/// A clustered sweep tight enough that adaptive growth re-runs the
/// ping-pong and burst families on their own, so every descriptor kind
/// crosses the executor boundary.
fn growing_sweep() -> (MachineSpec, NoiseModel, SweepConfig) {
    let cfg = SweepConfig {
        probes_per_class: 2,
        ci_rel_tol: 0.01,
        ..SweepConfig::fast()
    };
    (
        MachineSpec::dual_quad_cluster(2),
        NoiseModel::realistic(42),
        cfg,
    )
}

fn local(machine: &MachineSpec, noise: NoiseModel, cfg: &SweepConfig) -> LocalExecutor {
    LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone())
}

fn dense_sweep(
    executor: &mut dyn DescriptorExecutor,
) -> Result<(TopologyProfile, SweepReport), SweepError> {
    let (machine, noise, cfg) = growing_sweep();
    measure_profile_decomposed(&machine, &RankMapping::Block, P, noise, &cfg, executor)
}

fn compressed_sweep(
    executor: &mut dyn DescriptorExecutor,
) -> Result<(CompressedCostModel, SweepReport, SpillReport), SweepError> {
    let (machine, noise, cfg) = growing_sweep();
    let spill = SpillConfig::in_memory(std::env::temp_dir());
    measure_profile_compressed(
        &machine,
        &RankMapping::Block,
        P,
        noise,
        &cfg,
        &spill,
        executor,
    )
}

/// Runs every batch on the local pool, then lets `mangle` rewrite the
/// answer before the sweep sees it; records the kinds it was asked for.
struct Mangling {
    local: LocalExecutor,
    mangle: fn(&mut Vec<PairSample>),
    kinds: Vec<WorkKind>,
}

impl Mangling {
    fn new(mangle: fn(&mut Vec<PairSample>)) -> Self {
        let (machine, noise, cfg) = growing_sweep();
        Mangling {
            local: local(&machine, noise, &cfg),
            mangle,
            kinds: Vec::new(),
        }
    }
}

impl DescriptorExecutor for Mangling {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        self.kinds.extend(descriptors.iter().map(|d| d.kind));
        let mut samples = self.local.execute_batch(descriptors)?;
        (self.mangle)(&mut samples);
        Ok(samples)
    }
}

fn bits(profile: &TopologyProfile) -> Vec<u64> {
    let cost = &profile.cost;
    let cells = cost.o.as_slice().iter().chain(cost.l.as_slice());
    cells.map(|v| v.to_bits()).collect()
}

/// The sweep's error for an answer mangled by `mangle`, which must be a
/// protocol error.
fn protocol_error(mangle: fn(&mut Vec<PairSample>)) -> String {
    match dense_sweep(&mut Mangling::new(mangle)) {
        Err(SweepError::Protocol(msg)) => msg,
        Err(other) => panic!("expected a protocol error, got {other}"),
        Ok(_) => panic!("a mangled answer produced a profile"),
    }
}

#[test]
fn reordered_answers_give_the_same_profile() {
    let (machine, noise, cfg) = growing_sweep();
    let (expected, expected_report) = dense_sweep(&mut local(&machine, noise, &cfg)).unwrap();
    let mut reversed = Mangling::new(|samples| samples.reverse());
    let (profile, report) = dense_sweep(&mut reversed).unwrap();
    for kind in [WorkKind::PingPong, WorkKind::Burst] {
        assert!(reversed.kinds.contains(&kind), "no {kind:?} descriptor ran");
    }
    assert!(bits(&profile) == bits(&expected));
    assert_eq!(report.measurements, expected_report.measurements);
    assert_eq!(report.growth_rounds, expected_report.growth_rounds);
}

#[test]
fn reordered_answers_give_the_same_compressed_profile() {
    let (machine, noise, cfg) = growing_sweep();
    let (expected, expected_report, _) =
        compressed_sweep(&mut local(&machine, noise, &cfg)).unwrap();
    let mut rotated = Mangling::new(|samples| {
        let third = samples.len() / 3;
        samples.rotate_left(third);
    });
    let (model, report, _) = compressed_sweep(&mut rotated).unwrap();
    assert_eq!(
        serde_json::to_string(&model).unwrap(),
        serde_json::to_string(&expected).unwrap()
    );
    assert_eq!(report.measurements, expected_report.measurements);
}

#[test]
fn a_short_answer_is_a_protocol_error() {
    let msg = protocol_error(|samples| {
        samples.pop();
    });
    assert!(msg.starts_with("executor returned "), "{msg}");
}

#[test]
fn a_duplicated_answer_is_a_protocol_error() {
    let msg = protocol_error(|samples| samples[1].id = samples[0].id);
    assert!(msg.starts_with("duplicate sample id "), "{msg}");
}

#[test]
fn an_unknown_answer_id_is_a_protocol_error() {
    let msg = protocol_error(|samples| samples[0].id = samples.len() as u32);
    assert!(msg.starts_with("unknown sample id "), "{msg}");
}

/// An executor that fails in the first growth round: the batches before
/// it were answered, and still no profile comes out.
#[test]
fn an_executor_error_in_a_growth_round_ends_the_sweep() {
    struct FailsOnSecondBatch {
        local: LocalExecutor,
        batches: usize,
    }
    impl DescriptorExecutor for FailsOnSecondBatch {
        fn execute_batch(
            &mut self,
            descriptors: &[PairWorkDescriptor],
        ) -> Result<Vec<PairSample>, SweepError> {
            self.batches += 1;
            if self.batches == 2 {
                return Err(SweepError::Protocol("runner lost".to_string()));
            }
            self.local.execute_batch(descriptors)
        }
    }
    let (machine, noise, cfg) = growing_sweep();
    let mut failing = FailsOnSecondBatch {
        local: local(&machine, noise, &cfg),
        batches: 0,
    };
    match dense_sweep(&mut failing) {
        Err(SweepError::Protocol(msg)) => assert_eq!(msg, "runner lost"),
        Err(other) => panic!("the executor's error was replaced by {other}"),
        Ok(_) => panic!("a failed growth round produced a profile"),
    }
    assert_eq!(failing.batches, 2, "the sweep went on after the error");
}
