//! The two cold workloads: machine description → verified, compiled,
//! emitted barrier, with nothing carried over between episodes.
//!
//! `pipeline_p1024` stores the profile densely and goes on to execute the
//! barrier (and three references) on the simulator; `scale_p8192` stores it
//! class-compressed under a spill budget and stops at the emitted source.

use crate::catalog::Metrics;
use crate::checks::check_schedule;
use crate::inputs::machine_for;
use crate::procfs::peak_rss_mib;
use crate::run::{trace_metrics, Ctx, Outcome, SETUP_REPEATS};
use crate::spans::{episodes, probe_durations, Recorder};
use crate::stats::{mean_of, median, median_of, trimmed_mean};
use hbar_core::algorithms::Algorithm;
use hbar_core::clustering::{build_cluster_tree, classify_pairs, ClassingConfig};
use hbar_core::codegen::{c_source, compile_schedule};
use hbar_core::compose::{tune_hybrid_costs, tune_hybrid_costs_with, TunerConfig};
use hbar_core::cost::CostEvaluator;
use hbar_core::schedule::BarrierSchedule;
use hbar_simnet::barrier::{schedule_programs, staggered_delay_check};
use hbar_simnet::sweep::noise_regime_of;
use hbar_simnet::{
    measure_profile_compressed, measure_profile_decomposed, DescriptorExecutor, LocalExecutor,
    NoiseModel, PairSample, PairWorkDescriptor, SimConfig, SimWorld, SpillConfig, SpillReport,
    SweepConfig, SweepError,
};
use hbar_topo::cost::{CostMatrices, CostProvider};
use hbar_topo::features::TopologyExtractor;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::CompressedCostModel;
use std::time::Instant;

/// Back-to-back executions per simulated schedule.
const SIM_REPS: usize = 20;
/// Delay injected by the staggered-delay check: one virtual second (§VI).
const STAGGER_DELAY_NS: u64 = 1_000_000_000;

/// Size and shape of one cold workload.
pub struct ColdSpec {
    /// Ranks.
    pub p: usize,
    /// Ranks of the untimed warm-up episode in set-up.
    pub warmup_p: usize,
    /// `false`: dense `CostMatrices`. `true`: class-compressed model whose
    /// scatter tiles are staged within [`spill_budget`] and spilled beyond.
    pub compressed: bool,
    /// Execute the barrier and the references on the simulator.
    pub simulate: bool,
    /// Episodes the deterministic metrics are taken over; the timed loop
    /// runs at least this many.
    pub prefix: usize,
}

impl ColdSpec {
    /// `pipeline_p1024`.
    pub fn pipeline(smoke: bool) -> ColdSpec {
        let p = if smoke { 64 } else { 1024 };
        ColdSpec {
            p,
            warmup_p: p,
            compressed: false,
            simulate: true,
            prefix: if smoke { 2 } else { 8 },
        }
    }

    /// `scale_p8192`. The warm-up is a quarter of the ranks: it exercises
    /// every code path, spilling included, and a full-size one would buy
    /// nothing, because the episode's large allocations are mapped fresh
    /// from the kernel each time anyway.
    pub fn scale(smoke: bool) -> ColdSpec {
        let p = if smoke { 256 } else { 8192 };
        ColdSpec {
            p,
            warmup_p: p / 4,
            compressed: true,
            simulate: false,
            prefix: 2,
        }
    }
}

/// Staging budget of the compressed scatter: an eighth of the class grid
/// (`2 p²` bytes, 16 MiB of 128 MiB at P = 8192), so that 28 of 32 tiles
/// take the spill path.
pub fn spill_budget(p: usize) -> usize {
    2 * p * p / 8
}

/// Seed-independent inputs of one size.
struct Inputs {
    p: usize,
    machine: MachineSpec,
    mapping: RankMapping,
    members: Vec<usize>,
    sweep: SweepConfig,
    tuner: TunerConfig,
    /// Tree (the topology-neutral stand-in for `MPI_Barrier`),
    /// dissemination and linear over all ranks; built only to be simulated.
    references: Vec<BarrierSchedule>,
}

impl Inputs {
    fn new(p: usize, simulate: bool) -> Inputs {
        let members: Vec<usize> = (0..p).collect();
        let references = if simulate {
            [Algorithm::Tree, Algorithm::Dissemination, Algorithm::Linear]
                .iter()
                .map(|a| a.full_schedule(p, &members))
                .collect()
        } else {
            Vec::new()
        };
        Inputs {
            p,
            machine: machine_for(p),
            mapping: RankMapping::Block,
            members,
            sweep: SweepConfig::default(),
            tuner: TunerConfig::default(),
            references,
        }
    }
}

/// Counts every batch the sweep hands to the local executor and brackets
/// it with a `measure` span, so the `profile` span's self time is the
/// driver's bookkeeping.
struct TimedExecutor<'a> {
    inner: LocalExecutor,
    rec: &'a Recorder,
    descriptors: usize,
    batches: usize,
}

impl DescriptorExecutor for TimedExecutor<'_> {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        let _s = self.rec.span("measure");
        self.descriptors += descriptors.len();
        self.batches += 1;
        self.inner.execute_batch(descriptors)
    }
}

enum Model {
    Dense(CostMatrices),
    Compressed(CompressedCostModel, SpillReport),
}

impl Model {
    fn provider(&self) -> &dyn CostProvider {
        match self {
            Model::Dense(c) => c,
            Model::Compressed(m, _) => m,
        }
    }
}

/// What one episode measured.
#[derive(Default)]
struct Episode {
    ok: bool,
    cold_s: f64,
    execute_s: f64,
    rss_mib: f64,
    pred_us: f64,
    /// Predicted cost of the reference tree (scale only; the pipeline
    /// simulates it instead).
    tree_pred_us: f64,
    /// Simulated mean time of hybrid, tree, dissemination, linear.
    sim_us: [f64; 4],
    counts: Vec<(&'static str, f64)>,
}

fn episode(
    spec: &ColdSpec,
    inp: &Inputs,
    ctx: &Ctx,
    noise_seed: u64,
    first: bool,
    in_prefix: bool,
) -> Episode {
    let rec = ctx.rec;
    let p = inp.p;
    let noise = NoiseModel::realistic(noise_seed);
    let mut ep = Episode::default();
    let root = rec.span("episode");

    // --- cold tune: machine description → emitted barrier -------------
    let cold = Instant::now();
    let mut exec = TimedExecutor {
        inner: LocalExecutor::new(inp.machine.clone(), noise, inp.sweep.profiling.clone()),
        rec,
        descriptors: 0,
        batches: 0,
    };
    let (model, report) = {
        let _s = rec.span("profile");
        if spec.compressed {
            let spill = SpillConfig::budgeted(ctx.dir.join("spill"), spill_budget(p));
            let (model, report, spilled) = measure_profile_compressed(
                &inp.machine,
                &inp.mapping,
                p,
                noise,
                &inp.sweep,
                &spill,
                &mut exec,
            )
            .expect("spill directory is writable and the class space fits");
            (Model::Compressed(model, spilled), report)
        } else {
            let (profile, report) = measure_profile_decomposed(
                &inp.machine,
                &inp.mapping,
                p,
                noise,
                &inp.sweep,
                &mut exec,
            )
            .expect("the local executor cannot fail");
            (Model::Dense(profile.cost), report)
        }
    };
    let cost = model.provider();
    let tuned = {
        let _s = rec.span("tune");
        tune_hybrid_costs(cost, &inp.members, &inp.tuner)
    };
    let verified = {
        let _s = rec.span("verify");
        hbar_core::verify::is_barrier(&tuned.schedule)
    };
    let programs = {
        let _s = rec.span("compile");
        compile_schedule(&tuned.schedule)
    };
    let source = {
        let _s = rec.span("emit");
        programs.as_ref().ok().map(|p| c_source("hbar_barrier", p))
    };
    ep.cold_s = cold.elapsed().as_secs_f64();
    ep.pred_us = tuned.predicted_cost * 1e6;

    // --- execute: world build + simulated executions ------------------
    let mut sim_ok = true;
    let mut events = 0u64;
    let mut world = None;
    if spec.simulate {
        let started = Instant::now();
        let mut w = {
            let _s = rec.span("world_build");
            SimWorld::new(
                SimConfig {
                    machine: inp.machine.clone(),
                    mapping: inp.mapping.clone(),
                    noise,
                },
                p,
            )
        };
        {
            let _s = rec.span("execute");
            let mut eval = CostEvaluator::new(inp.tuner.cost_params);
            let schedules = std::iter::once(&tuned.schedule).chain(&inp.references);
            for (slot, schedule) in ep.sim_us.iter_mut().zip(schedules) {
                let progs = {
                    let _s = rec.span("programs");
                    schedule_programs(schedule, SIM_REPS)
                };
                let result = {
                    let _s = rec.span("run");
                    w.run(&progs)
                };
                match result {
                    Ok(r) => {
                        events += r.events;
                        *slot = r.makespan() as f64 / SIM_REPS as f64 * 1e-3;
                    }
                    Err(_) => sim_ok = false,
                }
                let _s = rec.span("predict");
                std::hint::black_box(eval.barrier_cost(schedule, cost, None));
            }
        }
        ep.execute_s = started.elapsed().as_secs_f64();
        world = Some(w);
    }
    if first {
        // Before any check has run at this size: the checks' own working
        // set (the analyzer's closure matrices, the reference tree at
        // P = 8192) is larger than the pipeline's and must not be what
        // `peak_rss_mb` reports.
        ep.rss_mib = peak_rss_mib();
    }

    // --- output checks (outside every end-to-end figure) --------------
    let mut diagnostics = 0;
    {
        let _s = rec.span("check");
        ep.ok = verified && sim_ok && matches!(source, Some(Ok(_)));
        if let Ok(programs) = &programs {
            let c = check_schedule(&tuned.schedule, verified, programs, rec);
            ep.ok &= c.ok;
            diagnostics = c.diagnostics;
        }
        if let (true, Some(w)) = (first, world.as_mut()) {
            // Independent of the Eq. 3 closure: delay each rank in turn
            // and watch every rank wait for it. P simulated runs, so only
            // the first timed episode of a run pays for it.
            let _s = rec.span("staggered");
            ep.ok &= staggered_delay_check(w, &tuned.schedule, STAGGER_DELAY_NS).0;
        }
        if in_prefix && !spec.simulate {
            let _s = rec.span("reference");
            let tree = Algorithm::Tree.full_schedule(p, &inp.members);
            let mut eval = CostEvaluator::new(inp.tuner.cost_params);
            ep.tree_pred_us = eval.barrier_cost(&tree, cost, None) * 1e6;
        }
    }
    drop(root);

    let c_bytes = match &source {
        Some(Ok(s)) => s.len(),
        _ => 0,
    };
    ep.counts = vec![
        ("simnet.sweep.descriptors", exec.descriptors as f64),
        ("simnet.sweep.batches", exec.batches as f64),
        (
            "core.pairs.classes",
            (report.pair_classes + report.diag_classes) as f64,
        ),
        ("core.sss.clusters", tuned.tree.cluster_count() as f64),
        ("core.compose.stages", tuned.schedule.len() as f64),
        (
            "core.compose.signals",
            tuned.schedule.total_signals() as f64,
        ),
        ("core.codegen.c_bytes", c_bytes as f64),
        ("analyze.diagnostics", diagnostics as f64),
        ("simnet.engine.events", events as f64),
        ("topo.cost.dense_bytes", (16 * p * p) as f64),
    ];
    if let Model::Compressed(m, spill) = &model {
        ep.counts.extend([
            ("topo.compressed.model_bytes", m.heap_bytes() as f64),
            ("simnet.scatter.tiles", spill.tiles as f64),
            ("simnet.scatter.spilled_tiles", spill.spilled_tiles as f64),
            ("simnet.scatter.spill_bytes", spill.spill_bytes as f64),
            (
                "simnet.scatter.staged_peak_bytes",
                spill.staged_peak_bytes as f64,
            ),
        ]);
    }

    if rec.enabled() {
        probes(inp, noise, cost, rec);
    }
    ep
}

/// Standalone re-measurements of single layers on this episode's inputs.
/// Each is a root probe span, outside the episode and excluded from its
/// sums; they size layers that the episode only runs inside a larger call.
fn probes(inp: &Inputs, noise: NoiseModel, cost: &dyn CostProvider, rec: &Recorder) {
    {
        let cores = inp.mapping.place(&inp.machine, inp.p);
        let extractor = TopologyExtractor::with_noise_regime(noise_regime_of(&noise));
        let cfg = ClassingConfig {
            symmetric: inp.sweep.profiling.symmetric,
            probes_per_class: inp.sweep.probes_per_class,
            probe_seed: inp.sweep.probe_seed,
        };
        let _s = rec.probe("classify");
        std::hint::black_box(classify_pairs(
            &inp.machine,
            &cores,
            inp.p,
            &extractor,
            &cfg,
        ));
    }
    tuner_probes(cost, &inp.members, &inp.tuner, rec);
}

/// The tuner's layers one at a time: fingerprint, clustering metric,
/// cluster tree over that metric, and a tune that finds the tree already
/// in its evaluator.
pub fn tuner_probes(
    cost: &dyn CostProvider,
    members: &[usize],
    tuner: &TunerConfig,
    rec: &Recorder,
) {
    {
        let _s = rec.probe("fingerprint");
        std::hint::black_box(cost.fingerprint());
    }
    let metric = {
        let _s = rec.probe("metric");
        cost.distance_metric()
    };
    {
        let _s = rec.probe("sss");
        std::hint::black_box(build_cluster_tree(
            &metric,
            members,
            tuner.sparseness,
            tuner.max_depth,
        ));
    }
    let mut eval = CostEvaluator::new(tuner.cost_params);
    eval.rebind(cost);
    eval.cluster_tree(cost, members, tuner.sparseness, tuner.max_depth);
    let _s = rec.probe("compose");
    std::hint::black_box(tune_hybrid_costs_with(cost, members, tuner, &mut eval));
}

/// Sets the tuner-probe metrics from the recorded probe spans.
pub fn tuner_probe_metrics(m: &mut Metrics, spans: &[crate::spans::Span]) {
    for (metric, probe) in [
        ("topo.cost.fingerprint_s", "fingerprint"),
        ("topo.metric.build_s", "metric"),
        ("core.sss.tree_s", "sss"),
        ("core.compose.compose_s", "compose"),
    ] {
        m.set(metric, median(&probe_durations(spans, probe)));
    }
}

/// Runs one cold workload.
pub fn run(spec: &ColdSpec, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();

    // --- set-up, several times over ------------------------------------
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let inp = Inputs::new(spec.p, spec.simulate);
        let small = (spec.warmup_p != spec.p).then(|| Inputs::new(spec.warmup_p, spec.simulate));
        let warm = episode(
            spec,
            small.as_ref().unwrap_or(&inp),
            ctx,
            ctx.seed,
            false,
            false,
        );
        setup_s.push(started.elapsed().as_secs_f64());
        out.attempted += 1;
        out.failed += u64::from(!warm.ok);
        inputs = Some(inp);
    }
    let inp = inputs.expect("set up at least once");

    // --- timed loop ------------------------------------------------------
    let mut ops: Vec<Episode> = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    // Episode inputs come in lumps (45 to 65 measurements, depending on the
    // noise seed), so a traced run gives both episodes of a pair the same
    // seed: the traced and the untraced time then differ by the recorder
    // alone. The deterministic metrics are taken over the first `prefix`
    // seeds either way, so the two kinds of run agree on them.
    let stride = if ctx.trace { 2 } else { 1 };
    let started = Instant::now();
    while ctx.keep_going(started, 1.0, ops.len(), stride * spec.prefix) {
        let i = ops.len();
        let traced = ctx.arm(i);
        let ep = episode(
            spec,
            &inp,
            ctx,
            ctx.seed + 1 + (i / stride) as u64,
            i == 0,
            i.is_multiple_of(stride) && i < stride * spec.prefix,
        );
        (if traced {
            &mut traced_s
        } else {
            &mut untraced_s
        })
        .push(ep.cold_s + ep.execute_s);
        out.attempted += 1;
        out.failed += u64::from(!ep.ok);
        ops.push(ep);
    }
    ctx.rec.set_enabled(false);

    // --- end-to-end ------------------------------------------------------
    let m = &mut out.metrics;
    let cold: Vec<f64> = ops.iter().map(|e| e.cold_s).collect();
    let op_s: Vec<f64> = ops.iter().map(|e| e.cold_s + e.execute_s).collect();
    let prefix: Vec<&Episode> = ops.iter().step_by(stride).take(spec.prefix).collect();

    m.set("setup_s", median(&setup_s));
    m.set("ready_ms", trimmed_mean(&cold) * 1e3);
    m.set("ops_per_s", 1.0 / trimmed_mean(&op_s));
    m.set("peak_rss_mb", ops[0].rss_mib);
    let pred_us = mean_of(&prefix, |e| e.pred_us);
    if spec.simulate {
        m.set("barrier_us", mean_of(&prefix, |e| e.sim_us[0]));
        m.set(
            "speedup_vs_tree",
            mean_of(&prefix, |e| e.sim_us[1] / e.sim_us[0]),
        );
    } else {
        m.set("barrier_us", pred_us);
        m.set(
            "speedup_vs_tree",
            mean_of(&prefix, |e| e.tree_pred_us / e.pred_us),
        );
    }

    // --- per-layer -------------------------------------------------------
    m.set("cold_tune_s", median(&cold));
    m.set("ops", ops.len() as f64);
    m.set("fail_frac", out.failed as f64 / out.attempted as f64);
    m.set("barrier_pred_us", pred_us);
    if spec.simulate {
        m.set("execute_s", median_of(&ops, |e| e.execute_s));
        let sim_us = m.get("barrier_us");
        m.set("barrier_sim_us", sim_us);
        m.set(
            "pred_rel_err",
            mean_of(&prefix, |e| (e.pred_us - e.sim_us[0]).abs() / e.sim_us[0]),
        );
        m.set("quality.tree_sim_us", mean_of(&prefix, |e| e.sim_us[1]));
        m.set(
            "quality.dissemination_sim_us",
            mean_of(&prefix, |e| e.sim_us[2]),
        );
        m.set("quality.linear_sim_us", mean_of(&prefix, |e| e.sim_us[3]));
    }
    for k in 0..prefix[0].counts.len() {
        let name = prefix[0].counts[k].0;
        m.set(name, mean_of(&prefix, |e| e.counts[k].1));
    }
    if ctx.trace {
        let spans = ctx.rec.spans();
        let eps = episodes(&spans);
        let total = |name: &'static str| median_of(&eps, |e| e.total(name));
        let profile = total("profile");
        let measure = total("measure");
        m.set("simnet.sweep.profile_s", profile);
        m.set("simnet.sweep.measure_s", measure);
        m.set(
            "simnet.sweep.driver_s",
            median_of(&eps, |e| e.self_time("profile")),
        );
        m.set("simnet.sweep.useful_frac", measure / profile);
        m.set("core.compose.tune_s", total("tune"));
        m.set("core.verify.is_barrier_s", total("verify"));
        m.set("core.codegen.compile_s", total("compile"));
        m.set("core.codegen.emit_c_s", total("emit"));
        m.set("analyze.schedule_s", total("analyze_schedule"));
        m.set("analyze.programs_s", total("analyze_programs"));
        if spec.simulate {
            let run_s = total("run");
            let events = m.get("simnet.engine.events");
            m.set("simnet.world.build_s", total("world_build"));
            m.set("simnet.barrier.programs_s", total("programs"));
            m.set("simnet.engine.run_s", run_s);
            m.set("simnet.engine.events_per_s", events / run_s);
            m.set("simnet.engine.ns_per_event", run_s * 1e9 / events);
            m.set("core.cost.predict_s", total("predict"));
        }
        let classify = median(&probe_durations(&spans, "classify"));
        m.set("core.pairs.classify_s", classify);
        m.set(
            "core.pairs.pairs_per_s",
            (spec.p * (spec.p - 1)) as f64 / classify,
        );
        tuner_probe_metrics(m, &spans);
        trace_metrics(m, &eps, &traced_s, &untraced_s);
    }

    out.factors = vec![
        ("ranks", spec.p.to_string()),
        (
            "machine",
            format!("MachineSpec::new({}, 2, 4)", spec.p.div_ceil(8)),
        ),
        ("placement", "block".to_string()),
        (
            "noise",
            "NoiseModel::realistic(seed + 1 + episode); warm-up: seed".to_string(),
        ),
        (
            "storage",
            if spec.compressed {
                format!(
                    "compressed, SpillConfig::budgeted({} bytes)",
                    spill_budget(spec.p)
                )
            } else {
                "dense".to_string()
            },
        ),
        (
            "config",
            "SweepConfig::default, TunerConfig::default".to_string(),
        ),
        ("prefix_episodes", spec.prefix.to_string()),
    ];
    out
}
