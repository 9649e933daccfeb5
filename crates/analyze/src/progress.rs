//! Program-level progress analysis: unmatched signal counters and
//! deadlock detection over compiled rank programs.
//!
//! The abstract machine mirrors the discipline every backend executes
//! (the simulator's `WaitRecvs` / `WaitAll`, the emitted C's zero-byte
//! `MPI_Issend` and `MPI_Waitall`): a send is *posted* the moment its
//! step begins and matches FIFO against the receiver's cumulative demand
//! for that `(src, dst)` pair; a step completes when every receive it
//! posted has a matching send, and a rank completes when, after its last
//! step, every synchronous send it posted has been consumed by its
//! receiver. This over-approximates nothing the real backends allow: a
//! schedule that cannot complete here blocks every backend too.

use crate::diag::{Code, Diagnostic, Severity};
use hbar_core::codegen::RankProgram;
use std::collections::HashMap;

/// Cumulative per-pair counters, keyed by `(src, dst)`.
type PairCounts = HashMap<(usize, usize), u64>;

/// Runs the progress pass over `programs`, which must cover ranks
/// `0..n` in order. Appends findings to `out`.
pub(crate) fn check_programs(n: usize, programs: &[RankProgram], out: &mut Vec<Diagnostic>) {
    if !validate_shape(n, programs, out) {
        return;
    }

    // A010: per-pair totals must match — every send needs a receive.
    let mut sends: PairCounts = HashMap::new();
    let mut recvs: PairCounts = HashMap::new();
    for prog in programs {
        for step in &prog.steps {
            for &dst in &step.sends {
                *sends.entry((prog.rank, dst)).or_insert(0) += 1;
            }
            for &src in &step.recvs {
                *recvs.entry((src, prog.rank)).or_insert(0) += 1;
            }
        }
    }
    let mut pairs: Vec<(usize, usize)> = sends.keys().chain(recvs.keys()).copied().collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut unmatched = false;
    for (src, dst) in pairs {
        let s = sends.get(&(src, dst)).copied().unwrap_or(0);
        let r = recvs.get(&(src, dst)).copied().unwrap_or(0);
        if s != r {
            unmatched = true;
            out.push(
                Diagnostic::new(
                    Code::UnmatchedSignal,
                    Severity::Error,
                    format!("{src} sends {s} signal(s) to {dst} but {dst} receives {r}"),
                )
                .with_rank(src)
                .with_partner(dst),
            );
        }
    }
    // With unmatched counters a stall is already explained; the deadlock
    // pass would only restate it.
    if unmatched {
        return;
    }

    deadlock_check(programs, out);
}

/// A012: rank programs must be dense, ordered, and reference only valid
/// partners. Returns false (after reporting) when the abstract machine
/// cannot run.
fn validate_shape(n: usize, programs: &[RankProgram], out: &mut Vec<Diagnostic>) -> bool {
    if programs.len() != n {
        out.push(Diagnostic::new(
            Code::InvalidProgram,
            Severity::Error,
            format!("{} rank programs for {n} ranks", programs.len()),
        ));
        return false;
    }
    let mut ok = true;
    for (idx, prog) in programs.iter().enumerate() {
        if prog.rank != idx {
            out.push(
                Diagnostic::new(
                    Code::InvalidProgram,
                    Severity::Error,
                    format!("program {idx} claims rank {}", prog.rank),
                )
                .with_rank(idx),
            );
            ok = false;
            continue;
        }
        for step in &prog.steps {
            for &p in step.recvs.iter().chain(&step.sends) {
                if p >= n || p == prog.rank {
                    out.push(
                        Diagnostic::new(
                            Code::InvalidProgram,
                            Severity::Error,
                            if p == prog.rank {
                                format!("rank {p} communicates with itself")
                            } else {
                                format!("partner {p} out of range for {n} ranks")
                            },
                        )
                        .with_rank(prog.rank)
                        .with_partner(p),
                    );
                    ok = false;
                }
            }
        }
    }
    ok
}

/// Abstract execution to a fixed point; any rank left mid-program, or
/// after its last step with a send its receiver never consumed, is
/// deadlocked (A011), and the wait-for graph names a culprit cycle.
fn deadlock_check(programs: &[RankProgram], out: &mut Vec<Diagnostic>) {
    let mut posted: PairCounts = HashMap::new(); // sends posted, src -> dst
    let mut want: PairCounts = HashMap::new(); // receives demanded, src -> dst
    let mut consumed: PairCounts = HashMap::new(); // matched signals
    let mut ptr = vec![0usize; programs.len()];

    let enter =
        |prog: &RankProgram, step: usize, posted: &mut PairCounts, want: &mut PairCounts| {
            for &dst in &prog.steps[step].sends {
                *posted.entry((prog.rank, dst)).or_insert(0) += 1;
            }
            for &src in &prog.steps[step].recvs {
                *want.entry((src, prog.rank)).or_insert(0) += 1;
            }
        };
    for prog in programs {
        if !prog.steps.is_empty() {
            enter(prog, 0, &mut posted, &mut want);
        }
    }

    loop {
        // Nonblocking receives match as soon as a signal is available,
        // even while their step still waits on other requests.
        for (&pair, &demand) in &want {
            let avail = posted.get(&pair).copied().unwrap_or(0).min(demand);
            let c = consumed.entry(pair).or_insert(0);
            *c = (*c).max(avail);
        }
        let mut progressed = false;
        for prog in programs {
            let at = ptr[prog.rank];
            if at >= prog.steps.len() {
                continue;
            }
            let recvs_done = prog.steps[at].recvs.iter().all(|&src| {
                let pair = (src, prog.rank);
                consumed.get(&pair).copied().unwrap_or(0) >= want.get(&pair).copied().unwrap_or(0)
            });
            if recvs_done {
                ptr[prog.rank] = at + 1;
                if at + 1 < prog.steps.len() {
                    enter(prog, at + 1, &mut posted, &mut want);
                }
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Wait-for edges: a rank mid-program points at the senders its step
    // still needs, a rank past its last step at the receivers that have
    // not consumed its sends. Ranks with no edge have completed.
    let count = |counts: &PairCounts, pair: (usize, usize)| counts.get(&pair).copied().unwrap_or(0);
    let mut waits_on: HashMap<usize, Vec<usize>> = HashMap::new();
    for prog in programs {
        let r = prog.rank;
        let mut blockers: Vec<usize> = match prog.steps.get(ptr[r]) {
            Some(step) => step
                .recvs
                .iter()
                .copied()
                .filter(|&src| count(&posted, (src, r)) < count(&want, (src, r)))
                .collect(),
            None => prog
                .steps
                .iter()
                .flat_map(|step| step.sends.iter().copied())
                .filter(|&dst| count(&consumed, (r, dst)) < count(&posted, (r, dst)))
                .collect(),
        };
        if blockers.is_empty() && ptr[r] == prog.steps.len() {
            continue;
        }
        blockers.sort_unstable();
        blockers.dedup();
        waits_on.insert(r, blockers);
    }
    if waits_on.is_empty() {
        return;
    }
    let mut stuck: Vec<usize> = waits_on.keys().copied().collect();
    stuck.sort_unstable();

    match find_cycle(&waits_on) {
        Some(cycle) => {
            let path: Vec<String> = cycle.iter().map(usize::to_string).collect();
            out.push(
                Diagnostic::new(
                    Code::Deadlock,
                    Severity::Error,
                    format!(
                        "deadlock: {} of {} rank(s) cannot complete; wait cycle {} -> {}",
                        stuck.len(),
                        programs.len(),
                        path.join(" -> "),
                        cycle[0],
                    ),
                )
                .with_rank(cycle[0])
                .with_partner(cycle[1 % cycle.len()]),
            );
        }
        None => {
            // Counts matched, so a stall without a cycle should be
            // impossible — report it anyway rather than stay silent.
            out.push(Diagnostic::new(
                Code::Deadlock,
                Severity::Error,
                format!("abstract execution stalls with ranks {stuck:?} blocked"),
            ));
        }
    }
}

/// First cycle reachable in the wait-for graph, as a rank list.
fn find_cycle(waits_on: &HashMap<usize, Vec<usize>>) -> Option<Vec<usize>> {
    // Iterative DFS with an explicit on-path stack.
    let mut color: HashMap<usize, u8> = HashMap::new(); // 1 = on path, 2 = done
    let mut nodes: Vec<usize> = waits_on.keys().copied().collect();
    nodes.sort_unstable();
    for &start in &nodes {
        if color.contains_key(&start) {
            continue;
        }
        let mut path: Vec<(usize, usize)> = vec![(start, 0)];
        color.insert(start, 1);
        while let Some(&(node, next)) = path.last() {
            let succs = waits_on.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if next >= succs.len() {
                color.insert(node, 2);
                path.pop();
                continue;
            }
            path.last_mut().expect("nonempty").1 += 1;
            let succ = succs[next];
            match color.get(&succ) {
                Some(1) => {
                    // Found a cycle: slice the path from succ onward.
                    let pos = path.iter().position(|&(r, _)| r == succ).unwrap();
                    return Some(path[pos..].iter().map(|&(r, _)| r).collect());
                }
                Some(_) => {}
                None => {
                    color.insert(succ, 1);
                    path.push((succ, 0));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_core::algorithms::Algorithm;
    use hbar_core::codegen::{compile_schedule, RankStep};

    fn run(n: usize, programs: &[RankProgram]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_programs(n, programs, &mut out);
        out
    }

    fn prog(rank: usize, steps: Vec<(Vec<usize>, Vec<usize>)>) -> RankProgram {
        RankProgram {
            rank,
            steps: steps
                .into_iter()
                .map(|(recvs, sends)| RankStep { recvs, sends })
                .collect(),
        }
    }

    #[test]
    fn compiled_library_programs_make_progress() {
        for (alg, p) in [
            (Algorithm::Linear, 7),
            (Algorithm::Tree, 12),
            (Algorithm::Dissemination, 9),
            (Algorithm::Butterfly, 8),
        ] {
            let members: Vec<usize> = (0..p).collect();
            let progs = compile_schedule(&alg.full_schedule(p, &members)).unwrap();
            assert!(run(p, &progs).is_empty(), "{alg} at {p}");
        }
    }

    #[test]
    fn dropped_receive_is_unmatched() {
        // 0 <-> 1 exchange, but 1 forgets to receive.
        let programs = vec![
            prog(0, vec![(vec![1], vec![1])]),
            prog(1, vec![(vec![], vec![0])]),
        ];
        let diags = run(2, &programs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::UnmatchedSignal);
        assert_eq!((diags[0].rank, diags[0].partner), (Some(0), Some(1)));
        assert!(diags[0].message.contains("sends 1"), "{}", diags[0].message);
    }

    #[test]
    fn crossed_waits_deadlock_with_cycle() {
        // Both ranks receive first, send second: classic head-of-line
        // deadlock even though all counters match.
        let programs = vec![
            prog(0, vec![(vec![1], vec![]), (vec![], vec![1])]),
            prog(1, vec![(vec![0], vec![]), (vec![], vec![0])]),
        ];
        let diags = run(2, &programs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Deadlock);
        assert!(
            diags[0].message.contains("wait cycle"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn same_step_exchange_is_not_a_deadlock() {
        // Nonblocking posts let a same-step exchange complete.
        let programs = vec![
            prog(0, vec![(vec![1], vec![1])]),
            prog(1, vec![(vec![0], vec![0])]),
        ];
        assert!(run(2, &programs).is_empty());
    }

    #[test]
    fn acknowledgements_do_not_pace_steps() {
        // 0's send to 1 is consumed only in 1's *second* step, which
        // waits on 0's second step. A step waits for its receives alone,
        // so 0 moves on before the ack and all three ranks complete.
        let programs = vec![
            prog(0, vec![(vec![], vec![1]), (vec![], vec![2])]),
            prog(1, vec![(vec![2], vec![]), (vec![0], vec![])]),
            prog(2, vec![(vec![0], vec![]), (vec![], vec![1])]),
        ];
        assert!(run(3, &programs).is_empty());
    }

    #[test]
    fn rank_waiting_only_for_its_acknowledgement_is_stuck() {
        // 0 runs its one step and waits at exit for 1 to consume its
        // signal; 1 never gets there, caught in a receive cycle with 2.
        let programs = vec![
            prog(0, vec![(vec![], vec![1])]),
            prog(1, vec![(vec![2], vec![]), (vec![0], vec![2])]),
            prog(2, vec![(vec![1], vec![]), (vec![], vec![1])]),
        ];
        let diags = run(3, &programs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::Deadlock);
        let msg = &diags[0].message;
        assert!(
            msg.contains("3 of 3") && msg.contains("1 -> 2 -> 1"),
            "{msg}"
        );
    }

    #[test]
    fn three_cycle_is_reported() {
        let programs = vec![
            prog(0, vec![(vec![2], vec![]), (vec![], vec![1])]),
            prog(1, vec![(vec![0], vec![]), (vec![], vec![2])]),
            prog(2, vec![(vec![1], vec![]), (vec![], vec![0])]),
        ];
        let diags = run(3, &programs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Deadlock);
        assert!(diags[0].message.contains("3 of 3"), "{}", diags[0].message);
    }

    #[test]
    fn malformed_programs_are_rejected() {
        let bad_rank = vec![prog(1, vec![])];
        let diags = run(1, &bad_rank);
        assert_eq!(diags[0].code, Code::InvalidProgram);

        let self_talk = vec![prog(0, vec![(vec![], vec![0])]), prog(1, vec![])];
        let diags = run(2, &self_talk);
        assert!(diags.iter().any(|d| d.code == Code::InvalidProgram));

        let out_of_range = vec![prog(0, vec![(vec![5], vec![])]), prog(1, vec![])];
        let diags = run(2, &out_of_range);
        assert!(diags.iter().any(|d| d.code == Code::InvalidProgram));

        let wrong_count = run(3, &[prog(0, vec![])]);
        assert_eq!(wrong_count[0].code, Code::InvalidProgram);
    }
}
