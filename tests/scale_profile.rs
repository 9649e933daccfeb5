//! A class-compressed profile at a size only a kind-space cost model
//! reaches inside `cargo test`.
//!
//! With one class id per ordered rank pair (the model's layout up to
//! PR 15) the P = 16384 profile below is a 512 MiB grid, written and read
//! back several times over on its way into the model. The model now keeps
//! the classing's `K × K` table over rank kinds (K = P/4 on these dual
//! quad-core nodes), so this test passing — with the bound on
//! `heap_bytes()` it asserts — is the proof that nothing between the
//! measurements and a tunable model allocates `P²` cells. The same model
//! is then tuned, and the hybrid verified, compiled, emitted and executed:
//! with stages held as signal lists, the only `P²` bits on that way are the
//! Eq. 3 closure's knowledge matrices.

use hbar_core::codegen::{c_source, compile_schedule};
use hbar_core::compose::{tune_hybrid_costs, TunerConfig};
use hbar_core::schedule::{BarrierSchedule, Stage};
use hbar_core::verify::is_barrier;
use hbar_simnet::barrier::schedule_programs;
use hbar_simnet::sweep::{DescriptorExecutor, PairSample, PairWorkDescriptor, SweepError};
use hbar_simnet::world::{SimConfig, SimWorld};
use hbar_simnet::{measure_profile_compressed, NoiseModel, SpillConfig, SweepConfig, WorkKind};
use hbar_topo::cost::CostProvider;
use hbar_topo::machine::{LinkClass, MachineSpec};
use hbar_topo::mapping::RankMapping;
use hbar_topo::CompressedCostModel;

/// Answers every descriptor with its link class's ground truth; with
/// `uneven_sockets`, a same-socket pair instead gets an answer of its own,
/// far enough from its neighbours' that the sweep gives up on the class
/// and measures every member.
struct ByLinkClass<'a> {
    machine: &'a MachineSpec,
    uneven_sockets: bool,
}

impl ByLinkClass<'_> {
    fn sample(&self, d: &PairWorkDescriptor) -> (f64, f64) {
        let truth = &self.machine.ground_truth;
        if d.kind == WorkKind::Diag {
            return (truth.effective_oii(), 0.0);
        }
        let class = self
            .machine
            .link_class(d.core_a as usize, d.core_b as usize);
        let own = match class {
            LinkClass::SameSocket if self.uneven_sockets => 1.0 + ((d.i + 3 * d.j) % 8) as f64,
            _ => 1.0,
        };
        (truth.effective_o(class) * own, truth.effective_l(class))
    }
}

impl DescriptorExecutor for ByLinkClass<'_> {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        let answer = |d: &PairWorkDescriptor| {
            let (o, l) = self.sample(d);
            PairSample { id: d.id, o, l }
        };
        Ok(descriptors.iter().map(answer).collect())
    }
}

fn profile(machine: &MachineSpec, p: usize, uneven_sockets: bool) -> CompressedCostModel {
    let mut executor = ByLinkClass {
        machine,
        uneven_sockets,
    };
    let spill = SpillConfig::in_memory(std::env::temp_dir().join("hbar_scale_profile_unused"));
    let (model, _, spilled) = measure_profile_compressed(
        machine,
        &RankMapping::Block,
        p,
        NoiseModel::none(),
        &SweepConfig::default(),
        &spill,
        &mut executor,
    )
    .expect("an in-memory scatter of a handful of classes");
    assert_eq!(spilled.spilled_tiles, 0);
    model
}

/// What the map may weigh: the `K × K` table, twelve bytes an override,
/// and a few per rank and per kind.
fn map_bytes(p: usize, kinds: usize, overrides: usize) -> usize {
    2 * kinds * kinds + 12 * overrides + 8 * p + 16 * kinds
}

#[test]
fn compressed_profile_at_p16384_weighs_megabytes() {
    let p = 16384;
    let machine = MachineSpec::new(2048, 2, 4);
    assert_eq!(machine.total_cores(), p);
    let model = profile(&machine, p, false);
    let map = model.class_map();
    assert_eq!(map.kinds(), p / 4);
    assert!(map.overrides().is_empty());
    assert_eq!(
        model.classes(),
        6,
        "four pair classes, one per socket's O_ii"
    );
    assert!(
        model.heap_bytes() < 40 << 20,
        "{} bytes; one class id per cell is 512 MiB",
        model.heap_bytes()
    );
    assert!(model.heap_bytes() < map_bytes(p, map.kinds(), 0) + 1024);

    // Ranks 0..4 share a socket, 4..8 are the node's other socket, node
    // 2047 is the last.
    let truth = &machine.ground_truth;
    for (i, j, class) in [
        (0, 3, LinkClass::SameSocket),
        (16380, 16383, LinkClass::SameSocket),
        (1, 6, LinkClass::CrossSocket),
        (16381, 16378, LinkClass::CrossSocket),
        (2, 8, LinkClass::InterNode),
        (16383, 0, LinkClass::InterNode),
        (8191, 8192, LinkClass::InterNode),
    ] {
        for (a, b) in [(i, j), (j, i)] {
            assert_eq!(model.o_at(a, b), truth.effective_o(class), "O({a}, {b})");
            assert_eq!(model.l_at(a, b), truth.effective_l(class), "L({a}, {b})");
        }
    }
    for i in [0, 5, 8190, 16383] {
        assert_eq!(model.o_at(i, i), truth.effective_oii());
        assert_eq!(model.l_at(i, i), 0.0);
    }
    assert!(model.is_symmetric());
    let metric = model.distance_metric();
    assert_eq!(metric.diameter(), truth.effective_o(LinkClass::InterNode));
    assert_eq!(
        metric.dist(9, 14),
        truth.effective_o(LinkClass::CrossSocket)
    );

    tuned_hybrid_verifies_and_executes(&machine, &model);
}

/// Tunes a hybrid on `model`, and takes it the rest of the way: Eq. 3,
/// refutation with one signal removed, rank programs, C, one execution.
fn tuned_hybrid_verifies_and_executes(machine: &MachineSpec, model: &CompressedCostModel) {
    let p = model.p();
    let members: Vec<usize> = (0..p).collect();
    let tuned = tune_hybrid_costs(model, &members, &TunerConfig::default());
    let schedule = &tuned.schedule;
    let signals = schedule.total_signals();
    // Nodes of two sockets of four cores under one root.
    assert_eq!(tuned.tree.cluster_count(), 1 + p / 8 + p / 4);
    assert!(schedule.heap_bytes() <= 12 * signals + 2 * schedule.len() * size_of::<Stage>());
    assert!(is_barrier(schedule));

    let middle = schedule.len() / 2;
    let mut with_gap = BarrierSchedule::new(p);
    for (k, stage) in schedule.stages().iter().enumerate() {
        let mut matrix = stage.matrix.clone();
        if k == middle {
            let (src, dst) = matrix.edges().next().expect("no stage is empty");
            matrix.set(src, dst, false);
        }
        with_gap.push(Stage {
            matrix,
            mode: stage.mode,
        });
    }
    assert!(!is_barrier(&with_gap));

    let programs = compile_schedule(schedule).expect("a tuned schedule compiles");
    let source = c_source("hbar_barrier", &programs).expect("a valid name");
    assert!(source.len() > 600 * p, "{} bytes of C", source.len());
    let mut world = SimWorld::new(
        SimConfig {
            machine: machine.clone(),
            mapping: RankMapping::Block,
            noise: NoiseModel::realistic(1),
        },
        p,
    );
    let result = world
        .run(&schedule_programs(schedule, 1))
        .unwrap_or_else(|e| panic!("the hybrid deadlocked at P = {p}: {e}"));
    assert_eq!(result.events, (p + 3 * signals) as u64);
    assert!(result.makespan() > 0);
}

#[test]
fn exploded_socket_classes_stay_in_kind_space() {
    let p = 16384;
    let machine = MachineSpec::new(2048, 2, 4);
    let model = profile(&machine, p, true);
    let map = model.class_map();
    assert_eq!(map.kinds(), p / 4);
    // Six pairs a socket, each in both orientations.
    assert_eq!(map.overrides().len(), 2 * 6 * (p / 4));
    assert_eq!(model.classes(), 6 + 6 * (p / 4));
    assert!(
        model.heap_bytes()
            < map_bytes(p, map.kinds(), map.overrides().len()) + 17 * model.classes()
    );
    assert!(model.is_symmetric());

    // Every overridden cell answers with the pair's own sample, whichever
    // way round it is asked; never through a dense image.
    let executor = ByLinkClass {
        machine: &machine,
        uneven_sockets: true,
    };
    let cores = RankMapping::Block.place(&machine, p);
    for &(i, j, _) in map.overrides() {
        let (lo, hi) = (i.min(j), i.max(j));
        let measured = PairWorkDescriptor {
            id: 0,
            kind: WorkKind::Pair,
            i: lo,
            j: hi,
            core_a: cores[lo as usize] as u32,
            core_b: cores[hi as usize] as u32,
            sub_seed: 0,
            rep_scale: 1,
        };
        let (o, l) = executor.sample(&measured);
        assert_eq!(model.o_at(i as usize, j as usize), o, "O({i}, {j})");
        assert_eq!(model.l_at(i as usize, j as usize), l, "L({i}, {j})");
    }
    let truth = &machine.ground_truth;
    assert_eq!(model.o_at(1, 6), truth.effective_o(LinkClass::CrossSocket));
    assert_eq!(
        model.o_at(16383, 9),
        truth.effective_o(LinkClass::InterNode)
    );
    // The exploded classes' own estimates sit in no cell any more, and
    // the largest same-socket sample is still below the network's.
    assert_eq!(
        model.distance_metric().diameter(),
        truth.effective_o(LinkClass::InterNode)
    );
}
