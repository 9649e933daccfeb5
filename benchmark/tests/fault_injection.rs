//! The output checks are live: a schedule with one signal removed and a
//! served answer with one flipped byte both fail them, which is what
//! raises `failed` (and `fail_frac`) in a run.

use hbar_benchmark::checks::{check_schedule, response_matches};
use hbar_benchmark::inputs::machine_for;
use hbar_benchmark::serve::local_answer;
use hbar_benchmark::spans::Recorder;
use hbar_core::codegen::compile_schedule;
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_core::schedule::{BarrierSchedule, Stage};
use hbar_serve::proto::{TuneRequest, TuneResponse};
use hbar_topo::cost::CostMatrices;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;

fn costs(p: usize) -> CostMatrices {
    TopologyProfile::from_ground_truth_for(&machine_for(p), &RankMapping::Block, p).cost
}

#[test]
fn a_schedule_with_one_signal_removed_fails_the_check() {
    let p = 64;
    let members: Vec<usize> = (0..p).collect();
    let tuned = tune_hybrid_costs(&costs(p), &members, &TunerConfig::default());
    let rec = Recorder::default();
    let programs = compile_schedule(&tuned.schedule).unwrap();
    assert!(check_schedule(&tuned.schedule, true, &programs, &rec).ok);

    // Drop the first signal of the first stage.
    let mut broken = BarrierSchedule::new(p);
    for (k, stage) in tuned.schedule.stages().iter().enumerate() {
        let mut matrix = stage.matrix.clone();
        if k == 0 {
            let (i, j) = matrix.edges().next().expect("stage 0 signals");
            matrix.set(i, j, false);
        }
        broken.push(Stage {
            matrix,
            mode: stage.mode,
        });
    }
    assert_eq!(broken.total_signals() + 1, tuned.schedule.total_signals());
    let programs = compile_schedule(&broken).unwrap();
    // Even if the operation's own Eq. 3 verdict were wrongly `true`, the
    // analyzer's independent pass (A005) must catch it.
    assert!(!check_schedule(&broken, true, &programs, &rec).ok);
    // And a `false` verdict alone fails an otherwise clean schedule.
    let programs = compile_schedule(&tuned.schedule).unwrap();
    assert!(!check_schedule(&tuned.schedule, false, &programs, &rec).ok);
}

#[test]
fn a_served_answer_with_one_flipped_byte_fails_the_check() {
    let req = TuneRequest::new(42, costs(16));
    let (schedule_json, predicted_cost) = local_answer(&req);
    let served = TuneResponse {
        id: 42,
        cache_hit: true,
        predicted_cost,
        schedule_json: schedule_json.clone(),
        code_c: String::new(),
    };
    let local = (schedule_json, predicted_cost);
    assert!(response_matches(&served, 42, &local));

    let mut payload = Vec::new();
    served.encode_into(&mut payload);
    for at in 0..payload.len() {
        if at == 8 {
            continue; // the hit flag is telemetry, not part of the answer
        }
        let mut corrupt = payload.clone();
        corrupt[at] ^= 1;
        let accepted =
            TuneResponse::decode(&corrupt).is_ok_and(|resp| response_matches(&resp, 42, &local));
        assert!(!accepted, "a flip of byte {at} went unnoticed");
    }
}
