//! The two halves of a pair benchmark against the whole: a `PingPong`
//! descriptor answers, bit for bit, the `O` of the `Pair` descriptor with
//! the same sub-seed and `rep_scale`, and a `Burst` descriptor its `L` —
//! on every link class, at every scale a growth round asks for, on both
//! the reduced and the paper's schedule. The sweep's growth rounds measure
//! only the component that still misses its tolerance, and rely on this to
//! leave every value what a full re-measurement would have made it.

use hbar_simnet::profiling::{pair_sub_seed, ProfilingConfig};
use hbar_simnet::sweep::{execute_descriptor, PairWorkDescriptor, WorkKind};
use hbar_simnet::NoiseModel;
use hbar_topo::machine::{LinkClass, MachineSpec};

#[test]
fn ping_pong_and_burst_answer_the_pair_components_bit_for_bit() {
    let machine = MachineSpec::new(2, 2, 4);
    for (schedule, cfg) in [
        ("fast", ProfilingConfig::fast()),
        ("full", ProfilingConfig::default()),
    ] {
        for (class, core_b) in [
            (LinkClass::SameSocket, 1u32),
            (LinkClass::CrossSocket, 4),
            (LinkClass::InterNode, 8),
        ] {
            assert_eq!(machine.link_class(0, core_b as usize), class);
            for rep_scale in [1u32, 2, 4] {
                for seed in [7u64, 42] {
                    let noise = NoiseModel::realistic(seed);
                    let descriptor = |kind| PairWorkDescriptor {
                        id: 0,
                        kind,
                        i: 0,
                        j: 1,
                        core_a: 0,
                        core_b,
                        sub_seed: pair_sub_seed(0, 1, seed),
                        rep_scale,
                    };
                    let run = |kind| execute_descriptor(&machine, noise, &cfg, &descriptor(kind));
                    let (pair, ping_pong, burst) = (
                        run(WorkKind::Pair),
                        run(WorkKind::PingPong),
                        run(WorkKind::Burst),
                    );
                    let at = format!("{schedule} {class:?} rep_scale {rep_scale} seed {seed}");
                    assert_eq!(ping_pong.o.to_bits(), pair.o.to_bits(), "O, {at}");
                    assert_eq!(burst.l.to_bits(), pair.l.to_bits(), "L, {at}");
                    assert_eq!((ping_pong.l, burst.o), (0.0, 0.0), "{at}");
                }
            }
        }
    }
}
