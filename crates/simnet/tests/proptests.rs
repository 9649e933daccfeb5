//! Property-based tests of the discrete-event engine.

use hbar_core::algorithms::Algorithm;
use hbar_simnet::barrier::{measure_schedule, staggered_delay_check};
use hbar_simnet::engine::Engine;
use hbar_simnet::program::{Instr, Program};
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::{NoiseModel, NoiseState};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use proptest::prelude::*;

/// Random machine shapes within the paper's scale.
fn arb_machine() -> impl Strategy<Value = MachineSpec> {
    (1usize..=3, 1usize..=2, 1usize..=4)
        .prop_map(|(nodes, sockets, cores)| MachineSpec::new(nodes, sockets, cores))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Verified barrier schedules never deadlock on the simulator, and
    /// always take positive time for ≥2 ranks.
    #[test]
    fn verified_barriers_never_deadlock(machine in arb_machine(), alg_idx in 0usize..3, seed in 0u64..100) {
        let p = machine.total_cores();
        prop_assume!(p >= 2);
        let alg = Algorithm::PAPER_SET[alg_idx];
        let members: Vec<usize> = (0..p).collect();
        let sched = alg.full_schedule(p, &members);
        let mut world = SimWorld::new(
            SimConfig {
                machine,
                mapping: RankMapping::RoundRobin,
                noise: NoiseModel::realistic(seed),
            },
            p,
        );
        let t = measure_schedule(&mut world, &sched, 2);
        prop_assert!(t > 0.0);
    }

    /// A matched send/receive pattern between random pairs completes,
    /// and the makespan is deterministic for a fixed configuration.
    #[test]
    fn matched_pairs_complete_deterministically(
        machine in arb_machine(),
        pairs in prop::collection::vec((0usize..12, 0usize..12), 1..10),
    ) {
        let p = machine.total_cores();
        prop_assume!(p >= 2);
        // Build per-rank programs from the sanitized pair list.
        let mk = |p: usize, pairs: &[(usize, usize)]| {
            let mut programs: Vec<Program> = (0..p).map(|_| Program::new()).collect();
            for &(a, b) in pairs {
                let (a, b) = (a % p, b % p);
                if a == b {
                    continue;
                }
                programs[a] = std::mem::take(&mut programs[a]).issend(b);
                programs[b] = std::mem::take(&mut programs[b]).irecv(a);
            }
            programs.into_iter().map(|pr| pr.wait_all()).collect::<Vec<_>>()
        };
        let cfg = SimConfig::exact(machine, RankMapping::Block);
        let programs = mk(p, &pairs);
        let mut w1 = SimWorld::new(cfg.clone(), p);
        let r1 = w1.run(&programs).expect("matched pattern completes");
        let mut w2 = SimWorld::new(cfg, p);
        let r2 = w2.run(&programs).expect("matched pattern completes");
        prop_assert_eq!(r1.finish, r2.finish);
    }

    /// Adding a delay to any one rank never reduces the makespan of a
    /// barrier (monotonicity of the simulated fabric).
    #[test]
    fn delay_is_monotone(delayed in 0usize..8, delay_ms in 1u64..50) {
        let machine = MachineSpec::new(2, 1, 4);
        let p = 8;
        let members: Vec<usize> = (0..p).collect();
        let sched = Algorithm::Tree.full_schedule(p, &members);
        let programs = hbar_simnet::barrier::schedule_programs(&sched, 1);
        let cfg = SimConfig::exact(machine, RankMapping::RoundRobin);
        let mut world = SimWorld::new(cfg, p);
        let base = world.run(&programs).expect("runs").finish;
        let delayed_programs: Vec<Program> = programs
            .iter()
            .enumerate()
            .map(|(r, pr)| {
                if r == delayed {
                    let mut d = Program::with_capacity(pr.len() + 1);
                    d.push_delay(delay_ms * 1_000_000);
                    d.instrs.extend_from_slice(&pr.instrs);
                    d.labels = pr.labels.clone();
                    d
                } else {
                    pr.clone()
                }
            })
            .collect();
        let slow = world.run(&delayed_programs).expect("runs").finish;
        for r in 0..p {
            prop_assert!(slow[r] >= base[r], "rank {r}: {} < {}", slow[r], base[r]);
        }
        // And everyone waits out the delay (it is a barrier).
        let min_finish = slow.iter().copied().min().unwrap();
        prop_assert!(min_finish >= delay_ms * 1_000_000);
    }

    /// Noise never makes anything faster than the deterministic fabric.
    #[test]
    fn noise_only_slows_down(seed in 1u64..200) {
        let machine = MachineSpec::new(2, 1, 2);
        let p = 4;
        let members: Vec<usize> = (0..p).collect();
        let sched = Algorithm::Dissemination.full_schedule(p, &members);
        let mut exact = SimWorld::new(SimConfig::exact(machine.clone(), RankMapping::Block), p);
        let t_exact = measure_schedule(&mut exact, &sched, 1);
        let mut noisy = SimWorld::new(
            SimConfig {
                machine,
                mapping: RankMapping::Block,
                noise: NoiseModel::realistic(seed),
            },
            p,
        );
        let t_noisy = measure_schedule(&mut noisy, &sched, 1);
        prop_assert!(t_noisy >= t_exact * 0.999, "{t_noisy} < {t_exact}");
    }

    /// A reused engine alternating between *different* random program
    /// sets — matched patterns and one that deadlocks — is observationally
    /// identical to a freshly constructed engine per run: same finish
    /// times and event counts under realistic noise, same deadlock
    /// report. This is the reuse contract: `bind` rebuilds the channel
    /// table per program set and `rewind` empties it per run, so nothing
    /// one run left queued (a deadlock leaves a posted receive behind) may
    /// reach the next — whether that is the same set again, bound once and
    /// only rewound, or a different set bound over it.
    #[test]
    fn reused_engine_is_indistinguishable_from_fresh(
        machine in arb_machine(),
        pair_sets in prop::collection::vec(
            prop::collection::vec((0usize..12, 0usize..12), 1..10),
            2..4,
        ),
        seed in 0u64..100,
    ) {
        let p = machine.total_cores();
        prop_assume!(p >= 2);
        let mut sets: Vec<Vec<Program>> = pair_sets
            .iter()
            .map(|pairs| {
                let mut programs: Vec<Program> = (0..p).map(|_| Program::new()).collect();
                for &(a, b) in pairs {
                    let (a, b) = (a % p, b % p);
                    if a == b {
                        continue;
                    }
                    programs[a].push_issend(b);
                    programs[b].push_irecv(a);
                }
                for pr in &mut programs {
                    pr.push_wait_all();
                }
                programs
            })
            .collect();
        // The first set again, with rank 0 then awaiting a message rank 1
        // never sends and sending one rank 1 never awaits: a posted
        // receive stays queued on one channel, a message on the other.
        let mut deadlocking = sets[0].clone();
        deadlocking[0].push_irecv(1);
        deadlocking[0].push_issend(1);
        sets.insert(1, deadlocking);
        let model = NoiseModel::realistic(seed);
        let cores = RankMapping::RoundRobin.cores(&machine, p);
        let mut reused = Engine::new(cores.clone(), machine.ground_truth.clone());
        let mut salt = 0;
        for _round in 0..2 {
            for (i, programs) in sets.iter().enumerate() {
                reused.bind(programs);
                for _rerun in 0..3 {
                    salt += 1;
                    let fresh_result = Engine::new(cores.clone(), machine.ground_truth.clone())
                        .run(programs, NoiseState::new(model, salt))
                        .map(|r| (r.finish, r.events));
                    let reused_result = reused
                        .run_bound(programs, NoiseState::new(model, salt))
                        .map(|r| (r.finish, r.events));
                    prop_assert_eq!(fresh_result.is_err(), i == 1, "only set 1 deadlocks");
                    prop_assert_eq!(fresh_result, reused_result);
                }
            }
        }
    }

    /// The §VI staggered-delay check holds for every paper algorithm on
    /// random machines.
    #[test]
    fn delay_check_holds_on_random_machines(machine in arb_machine(), alg_idx in 0usize..3) {
        let p = machine.total_cores();
        prop_assume!((2..=12).contains(&p));
        let alg = Algorithm::PAPER_SET[alg_idx];
        let members: Vec<usize> = (0..p).collect();
        let sched = alg.full_schedule(p, &members);
        let mut world = SimWorld::new(SimConfig::exact(machine, RankMapping::RoundRobin), p);
        let (ok, _) = staggered_delay_check(&mut world, &sched, 5_000_000);
        prop_assert!(ok);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A body run k times is the body written out k times: same finish
    /// times, marks and event count under realistic noise, and for a set
    /// that deadlocks the same report, on a fresh engine and on one that
    /// last ran the written-out set. Bodies are random sends, receives,
    /// both waits, delays, no-op calls and marks. About two sets in five
    /// complete; in the rest a lone send or receive, or a rank whose
    /// count differs from its peers', leaves a message unmatched.
    #[test]
    fn repeated_body_is_its_unrolled_program(
        machine in arb_machine(),
        ops in prop::collection::vec((0usize..12, 0u8..10, 0usize..12, 0u64..4_000), 0..24),
        ks in prop::collection::vec(1usize..=4, 12),
        (one_count, lone) in (any::<bool>(), any::<bool>()),
        seed in 0u64..100,
    ) {
        let p = machine.total_cores();
        prop_assume!(p >= 2);
        let mut bodies: Vec<Program> = (0..p).map(|_| Program::new()).collect();
        for &(a, kind, b, v) in &ops {
            let (a, b) = (a % p, b % p);
            let body = &mut bodies[a];
            match kind {
                0..=3 if a != b => {
                    body.push_issend_bytes(b, v as usize % 3 * 512);
                    bodies[b].push_irecv(a);
                }
                4 if a != b && lone => match v % 2 {
                    0 => body.push_issend(b),
                    _ => body.push_irecv(b),
                },
                5 => body.push_wait_recvs(),
                6 => body.push_wait_all(),
                7 => body.push_delay(v),
                8 => body.push_mark(["a", "b"][v as usize % 2]),
                _ => body.push_noop_call(),
            }
        }
        let count = |r: usize| if one_count { ks[0] } else { ks[r % ks.len()] };
        let unrolled: Vec<Program> = bodies
            .iter()
            .enumerate()
            .map(|(r, body)| {
                let mut out = Program::new();
                for _ in 0..count(r) {
                    for &ins in &body.instrs {
                        match ins {
                            Instr::Mark { label } => out.push_mark(body.label(label)),
                            ins => out.instrs.push(ins),
                        }
                    }
                }
                out
            })
            .collect();
        let repeated: Vec<Program> = bodies
            .into_iter()
            .enumerate()
            .map(|(r, body)| body.repeated(count(r)))
            .collect();

        let cores = RankMapping::RoundRobin.cores(&machine, p);
        let engine = || Engine::new(cores.clone(), machine.ground_truth.clone());
        let noise = || NoiseState::new(NoiseModel::realistic(seed), 3);
        let outcome = |r: Result<hbar_simnet::engine::EngineResult, _>| {
            r.map(|r| (r.finish, r.marks, r.events))
                .map_err(|e: hbar_simnet::engine::SimDeadlock| e.stuck)
        };
        let expect = outcome(engine().run(&unrolled, noise()));
        prop_assert_eq!(&outcome(engine().run(&repeated, noise())), &expect);
        let mut reused = engine();
        prop_assert_eq!(&outcome(reused.run(&unrolled, noise())), &expect);
        prop_assert_eq!(&outcome(reused.run(&repeated, noise())), &expect);
        prop_assert_eq!(&outcome(reused.run_bound(&repeated, noise())), &expect);
    }
}
