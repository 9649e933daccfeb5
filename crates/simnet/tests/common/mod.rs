//! The execution form the simulator ran before a step waited for its
//! receives alone, rebuilt here so tests can pin the engine on it and
//! compare the two disciplines.

use hbar_core::codegen::compile_schedule;
use hbar_core::schedule::BarrierSchedule;
use hbar_simnet::Program;

/// Per step: post the receives, issue the synchronous sends, then wait
/// for all of them (the paper's "awaiting completion of all issued
/// requests" at every stage), `reps` times back-to-back.
pub fn per_step_wait_all_programs(schedule: &BarrierSchedule, reps: usize) -> Vec<Program> {
    compile_schedule(schedule)
        .expect("schedule passes codegen validation")
        .iter()
        .map(|rp| {
            let mut p = Program::new();
            for _ in 0..reps {
                for step in &rp.steps {
                    for &src in &step.recvs {
                        p.push_irecv(src);
                    }
                    for &dst in &step.sends {
                        p.push_issend(dst);
                    }
                    p.push_wait_all();
                }
            }
            p
        })
        .collect()
}
