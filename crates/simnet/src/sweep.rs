//! The profiling sweep: classing → representatives → scatter.
//!
//! The paper's §IV-A sweep runs `|P|(|P|−1)/2` pairwise benchmarks; at
//! `P = 4096` that is 8.4 million measurement schedules — hours of wall
//! clock for matrices whose entries repeat a handful of values. This
//! module is the one sweep driver, exhaustive or not: the Parsimon-style
//! decomposition of the sweep into three independent layers:
//!
//! 1. **classing** — pairs, and ranks' diagonal `O_ii` calls, are grouped
//!    into equivalence classes by feature vector
//!    ([`hbar_topo::features`]; exact hashing in
//!    [`hbar_core::clustering::classify_pairs`]). One class list holds
//!    the pair classes, then the diagonal ones, and the classing's
//!    rank-kind map answers "which class is cell `(i, j)`?" — `(i, i)`
//!    included — for the two later layers, which never see the extractor;
//! 2. **execution** — one *representative* per class is measured, plus a
//!    configurable number of *validation probes* (other members measured
//!    under their own sub-seeds) that estimate the within-class scatter;
//!    repetitions grow geometrically until the scatter is below the
//!    configured tolerance (the Hunold & Carpen-Amarie prescription:
//!    adaptive repetition, stop when the CI is tight), per component:
//!    `O` comes from the ping-pong size sweep and `L` from the burst
//!    sweep, and a growth round re-runs only the family whose estimate
//!    still misses. The grow/stop
//!    decision and the median/spread arithmetic are the private
//!    `StoppingRule`, `rel_spread` and `median` below, pinned bit for
//!    bit by the `stopping_parity` regression test, which also pins the
//!    measurement plan. Work items are self-contained
//!    [`PairWorkDescriptor`]s (a cell `(i, i)` is a [`WorkKind::Diag`]
//!    one), so execution can fan out to a work-stealing thread pool
//!    ([`LocalExecutor`]) or a TCP worker fleet ([`crate::distrib`])
//!    interchangeably;
//! 3. **scatter** — one estimate per class id is written back (mirrored,
//!    per the symmetric-link assumption) into the full `|P|²` matrices,
//!    or into the class-compressed model ([`crate::scatter`]).
//!
//! Everything is seed-deterministic: descriptors carry their noise
//! sub-seed, representatives and probes are chosen by deterministic scan
//! order and counter-hash reservoirs, and estimates are medians over a
//! fixed sample order — so local, distributed, and differently-threaded
//! runs produce bit-identical profiles.
//!
//! In the **singleton regime** — every class has exactly one member, as
//! forced by [`SweepConfig::exact`] or produced naturally by a fully
//! heterogeneous machine — the sweep performs exactly the exhaustive
//! sweep's measurements under the same sub-seeds: it *is* the paper's
//! exhaustive profile, the one `hbar profile` and the paper figures run
//! by default (`tests/sweep.rs` holds it bit for bit to an oracle that
//! measures every pair by hand).

use crate::noise::NoiseModel;
use crate::profiling::{
    diag_sub_seed, measure_l, measure_o, pair_bench, pair_sub_seed, ProfilingConfig,
};
use hbar_core::clustering::{classify_pairs, ClassingConfig, PairClassing};
use hbar_matrix::DenseMatrix;
use hbar_topo::compressed::CompressError;
use hbar_topo::cost::CostMatrices;
use hbar_topo::features::{ExactExtractor, PairFeatureExtractor, TopologyExtractor};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What a work descriptor measures. A pair's two halves answer, bit for
/// bit, the same component of a [`WorkKind::Pair`] descriptor at the same
/// `rep_scale` and sub-seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkKind {
    /// Off-diagonal `(O_ij, L_ij)` pair benchmark: both families.
    Pair,
    /// Diagonal `O_ii` transmission-free call benchmark.
    Diag,
    /// The pair's ping-pong size sweep only: answers `O_ij`, `l` is 0.
    PingPong,
    /// The pair's burst sweep only: answers `L_ij`, `o` is 0.
    Burst,
}

/// One self-contained unit of profiling work: everything a worker needs
/// to reproduce the measurement, including the noise sub-seed (so the
/// result is independent of *which* worker runs it, *when*, and in what
/// order).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PairWorkDescriptor {
    /// Driver-assigned identity; responses are merged by this key.
    pub id: u32,
    /// Pair or diagonal measurement.
    pub kind: WorkKind,
    /// Rank `i` (for `Diag`: the measured rank).
    pub i: u32,
    /// Rank `j` (for `Diag`: the idle partner rank).
    pub j: u32,
    /// Flat core index rank `i` is pinned to.
    pub core_a: u32,
    /// Flat core index rank `j` is pinned to.
    pub core_b: u32,
    /// Pre-mixed noise sub-seed (see
    /// [`crate::profiling::pair_sub_seed`]); carried in the descriptor so
    /// remote workers never re-derive it.
    pub sub_seed: u64,
    /// Repetition multiplier from adaptive growth (1 = the base
    /// [`ProfilingConfig`] schedule).
    pub rep_scale: u32,
}

/// The measured result of one descriptor. `l` is 0 for diagonal and
/// ping-pong work, `o` for burst work.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PairSample {
    /// Echoed descriptor identity.
    pub id: u32,
    /// Estimated `O` (seconds); 0 for burst work.
    pub o: f64,
    /// Estimated `L` (seconds); 0 for diagonal and ping-pong work.
    pub l: f64,
}

/// Errors of the decomposed sweep. The distributed layer contributes the
/// socket/protocol variants; the class-compressed scatter
/// ([`crate::scatter`]) contributes spill i/o and model-construction
/// failures. Local dense execution is infallible.
#[derive(Debug)]
pub enum SweepError {
    /// Socket-level failure talking to a worker, or spill-file i/o.
    Io(std::io::Error),
    /// A worker answered with a malformed or mismatched frame.
    Protocol(String),
    /// Every worker died (reconnects exhausted) with work left over and
    /// local fallback disabled.
    WorkersExhausted {
        /// Batches never executed.
        remaining_batches: usize,
    },
    /// The compressed scatter could not build a valid class model (e.g.
    /// the class space overflowed the `u16` grid).
    Compress(CompressError),
    /// The placement handed to the measurement phase covers a different
    /// number of ranks than the classing it came with.
    PlacementMismatch {
        /// Ranks the classing classed.
        classed: usize,
        /// Ranks the placement covers.
        placed: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "worker i/o failed: {e}"),
            SweepError::Protocol(msg) => write!(f, "worker protocol violation: {msg}"),
            SweepError::WorkersExhausted { remaining_batches } => write!(
                f,
                "all workers exhausted with {remaining_batches} batches unexecuted"
            ),
            SweepError::Compress(e) => write!(f, "compressed scatter failed: {e}"),
            SweepError::PlacementMismatch { classed, placed } => write!(
                f,
                "classing covers {classed} ranks but the placement covers {placed}"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// Something that can execute a batch of descriptors and return one
/// sample per descriptor (any order; merging is by `id`). The sweep's
/// control flow is executor-agnostic, which is what makes the local and
/// distributed paths produce identical profiles.
pub trait DescriptorExecutor {
    /// Executes every descriptor, returning exactly one sample per id.
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError>;
}

/// In-process executor: fans descriptors out over the work-stealing
/// thread pool. Item costs are wildly uneven once adaptive growth kicks
/// in (a grown representative runs 4–8× longer than its neighbours), so
/// dynamic scheduling matters here.
pub struct LocalExecutor {
    machine: MachineSpec,
    noise: NoiseModel,
    cfg: ProfilingConfig,
}

impl LocalExecutor {
    /// Executor measuring on `machine` under `noise` with the base
    /// schedule `cfg`.
    pub fn new(machine: MachineSpec, noise: NoiseModel, cfg: ProfilingConfig) -> Self {
        LocalExecutor {
            machine,
            noise,
            cfg,
        }
    }
}

impl DescriptorExecutor for LocalExecutor {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        Ok(descriptors
            .par_iter()
            .map(|d| execute_descriptor(&self.machine, self.noise, &self.cfg, d))
            .collect_stealing())
    }
}

/// Runs one descriptor's full measurement schedule. This is *the* leaf
/// operation of the whole subsystem: local threads and remote workers
/// both end up here, which is why their results agree bit-for-bit.
pub fn execute_descriptor(
    machine: &MachineSpec,
    noise: NoiseModel,
    cfg: &ProfilingConfig,
    d: &PairWorkDescriptor,
) -> PairSample {
    let mut bench = pair_bench(
        machine,
        d.core_a as usize,
        d.core_b as usize,
        noise,
        d.sub_seed,
    );
    let scaled;
    let cfg = if d.rep_scale <= 1 {
        cfg
    } else {
        scaled = scaled_config(cfg, d.rep_scale);
        &scaled
    };
    let (o, l) = match d.kind {
        WorkKind::Pair => (measure_o(&mut bench, cfg), measure_l(&mut bench, cfg)),
        WorkKind::PingPong => (measure_o(&mut bench, cfg), 0.0),
        WorkKind::Burst => {
            // Draw the noise a whole pair descriptor's bursts draw.
            bench.skip_runs((cfg.sizes.len() * cfg.reps) as u64);
            (0.0, measure_l(&mut bench, cfg))
        }
        WorkKind::Diag => (bench.noop(cfg.noop_calls), 0.0),
    };
    PairSample { id: d.id, o, l }
}

/// The base schedule with `scale`× the repetitions and transmission-free
/// calls (sizes and burst counts unchanged — growth buys tighter medians,
/// not new sample points).
fn scaled_config(cfg: &ProfilingConfig, scale: u32) -> ProfilingConfig {
    let scale = scale as usize;
    ProfilingConfig {
        reps: cfg.reps * scale,
        burst_reps: cfg.burst_reps * scale,
        noop_calls: cfg.noop_calls * scale,
        ..cfg.clone()
    }
}

/// Tuning knobs of the decomposed sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The per-measurement benchmark schedule (sizes, repetitions,
    /// bursts, symmetric flag).
    pub profiling: ProfilingConfig,
    /// Validation probes per class: extra members measured under their
    /// own sub-seeds to estimate within-class scatter. 0 disables
    /// validation (fastest, no error estimate).
    pub probes_per_class: usize,
    /// Seed of the deterministic probe reservoir.
    pub probe_seed: u64,
    /// Relative within-class scatter (max |sample − median| / median) of
    /// `O` or of `L` above which the benchmark family that measures that
    /// component is re-run at grown repetitions.
    pub ci_rel_tol: f64,
    /// Maximum geometric growth rounds (each doubles `rep_scale`); 0
    /// disables adaptive growth.
    pub max_growth_rounds: u32,
    /// The safety valve: a class whose validated scatter still exceeds
    /// this after all growth rounds is *exploded* — every member is
    /// measured individually at the base schedule under its own
    /// sub-seed, making those matrix entries exactly what the exhaustive
    /// sweep would have produced. `f64::INFINITY` disables explosion.
    pub explode_rel_tol: f64,
    /// Class every pair by exact identity instead of topology features —
    /// the sweep degenerates to the exhaustive one (the bit-parity
    /// regime).
    pub exact_classes: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            profiling: ProfilingConfig::default(),
            probes_per_class: 4,
            probe_seed: 0,
            ci_rel_tol: 0.05,
            max_growth_rounds: 2,
            explode_rel_tol: 0.25,
            exact_classes: false,
        }
    }
}

impl SweepConfig {
    /// Reduced schedule for tests and quick runs (mirrors
    /// [`ProfilingConfig::fast`]).
    pub fn fast() -> Self {
        SweepConfig {
            profiling: ProfilingConfig::fast(),
            probes_per_class: 2,
            explode_rel_tol: f64::INFINITY,
            ..SweepConfig::default()
        }
    }

    /// The paper's exhaustive sweep: exact classes, no probes, no growth
    /// — every pair (and every diagonal) measured once, at the base
    /// schedule, under its own sub-seed.
    pub fn exact(profiling: ProfilingConfig) -> Self {
        SweepConfig {
            profiling,
            probes_per_class: 0,
            probe_seed: 0,
            ci_rel_tol: f64::INFINITY,
            max_growth_rounds: 0,
            explode_rel_tol: f64::INFINITY,
            exact_classes: true,
        }
    }
}

/// Per-class diagnostics of one sweep.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Samples (representative + probes) the estimate was taken over.
    pub samples: usize,
    /// Repetition multiplier the `O` samples were last measured at.
    pub rep_scale_o: u32,
    /// Repetition multiplier the `L` samples were last measured at. A
    /// growth round re-runs only the family whose spread still misses, so
    /// the two scales differ when one component stopped before the other.
    pub rep_scale_l: u32,
    /// Relative scatter of `O` samples around their median.
    pub rel_spread_o: f64,
    /// Relative scatter of `L` samples around their median (0 for a
    /// diagonal class, whose samples have no `L`).
    pub rel_spread_l: f64,
}

/// What the decomposed sweep did and how trustworthy its shortcut is.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Off-diagonal pairs covered by the scatter.
    pub total_pairs: usize,
    /// Off-diagonal equivalence classes.
    pub pair_classes: usize,
    /// Diagonal equivalence classes.
    pub diag_classes: usize,
    /// Descriptors executed (across all growth rounds).
    pub measurements: usize,
    /// Growth rounds that actually ran.
    pub growth_rounds: u32,
    /// Pair classes the safety valve exploded (every member measured
    /// individually because the validated scatter stayed above
    /// [`SweepConfig::explode_rel_tol`]).
    pub exploded_pair_classes: usize,
    /// Diag classes the safety valve exploded.
    pub exploded_diag_classes: usize,
    /// Per-class diagnostics, in the classing's numbering: pair classes,
    /// then diagonal classes.
    pub class_stats: Vec<ClassStats>,
}

impl SweepReport {
    /// The measurement-count reduction over the exhaustive sweep
    /// (`p` diagonal + all-pairs benchmarks vs what actually ran).
    pub fn reduction_factor(&self, p: usize) -> f64 {
        (self.total_pairs + p) as f64 / self.measurements.max(1) as f64
    }
}

/// Quantizes a noise model into the feature-vector regime code: pairs
/// measured under different regimes never share a representative.
pub fn noise_regime_of(noise: &NoiseModel) -> u16 {
    if noise.is_deterministic() {
        return 0;
    }
    // 6 bits of jitter (per-mille, saturating) + 4 bits of spike-rate
    // decade; the seed deliberately does not participate (same
    // distribution ⇒ exchangeable measurements).
    let jitter = ((noise.jitter_sigma * 1000.0).round().clamp(0.0, 63.0)) as u16;
    let spike = if noise.spike_prob > 0.0 {
        (-noise.spike_prob.log10()).round().clamp(0.0, 15.0) as u16
    } else {
        15
    };
    1 + ((jitter << 4) | spike)
}

/// The sweep over an arbitrary executor, scattered into dense matrices.
/// [`SweepConfig::exact`] makes it the exhaustive §IV-A profile. Classing,
/// descriptor construction, adaptive growth, and scatter all happen here
/// on the driver; only descriptor execution crosses the executor
/// boundary. Results are merged by descriptor id, so the profile is
/// independent of executor scheduling.
///
/// # Panics
/// Panics if `p < 2` or the mapping cannot place `p` ranks.
pub fn measure_profile_decomposed(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
    executor: &mut dyn DescriptorExecutor,
) -> Result<(TopologyProfile, SweepReport), SweepError> {
    let (classing, m, report) =
        measure_placement(machine, mapping, p, noise, cfg, executor, usize::MAX)?;
    Ok((
        TopologyProfile {
            machine: machine.clone(),
            mapping: mapping.clone(),
            p,
            cost: scatter_dense(&classing, &m),
        },
        report,
    ))
}

/// Places, classes and measures — everything up to the scatter, which is
/// where the dense and the compressed sweep part ways. A classing with
/// more than `max_classes` classes, more than the scatter can hold, is
/// refused before anything is measured.
pub(crate) fn measure_placement(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
    executor: &mut dyn DescriptorExecutor,
    max_classes: usize,
) -> Result<(PairClassing, ClassMeasurements, SweepReport), SweepError> {
    assert!(p >= 2, "profiling needs at least two ranks, got {p}");
    let cores = mapping.place(machine, p);
    let noise_regime = noise_regime_of(&noise);
    let extractor: &dyn PairFeatureExtractor = if cfg.exact_classes {
        &ExactExtractor { noise_regime }
    } else {
        &TopologyExtractor { noise_regime }
    };
    let classing = classify_pairs(
        machine,
        &cores,
        p,
        extractor,
        &ClassingConfig {
            symmetric: cfg.profiling.symmetric,
            probes_per_class: cfg.probes_per_class,
            probe_seed: cfg.probe_seed,
        },
    );
    let needed = classing.classes.len();
    if needed > max_classes {
        return Err(SweepError::Compress(CompressError::ClassOverflow {
            needed,
        }));
    }
    let (m, report) = measure_classes(&cores, &classing, noise, cfg, executor)?;
    Ok((classing, m, report))
}

/// One class's sample set across growth rounds. Each pair field is
/// `(O, L)`: the components grow and stop independently.
struct ClassSamples {
    /// `(o, l)` per sample; index 0 is the representative.
    values: Vec<(f64, f64)>,
    /// The repetition multiplier each component was last measured at.
    rep_scale: (u32, u32),
    /// Which components the next round measures: a component stops once
    /// its own spread is within the tolerance, and never re-enters.
    growing: (bool, bool),
}

/// Everything the measurement phase learned, in class space: per-class
/// estimates, the explosion decisions, and the per-member exact
/// measurements of exploded classes. Both scatter backends (dense
/// matrices here, class-grid tiles in [`crate::scatter`]) consume this —
/// it is `O(classes + exploded members)`, never `O(P²)`.
pub(crate) struct ClassMeasurements {
    /// Median `(O, L)` per class, in the classing's numbering (`L` is 0
    /// for a diagonal class).
    pub(crate) estimates: Vec<(f64, f64)>,
    /// Classes the safety valve exploded.
    pub(crate) explode: Vec<bool>,
    /// Exact measurement of every member of an exploded class, by cell.
    pub(crate) exploded: HashMap<(usize, usize), (f64, f64)>,
}

/// Executes one batch whose ids are `0..descriptors.len()` and returns
/// its `(o, l)` samples indexed by id, having checked that the executor
/// answered every id exactly once. `what` names the batch in the error.
fn run_batch(
    executor: &mut dyn DescriptorExecutor,
    descriptors: &[PairWorkDescriptor],
    what: &str,
) -> Result<Vec<(f64, f64)>, SweepError> {
    let samples = executor.execute_batch(descriptors)?;
    if samples.len() != descriptors.len() {
        return Err(SweepError::Protocol(format!(
            "executor returned {} samples for {} {what}",
            samples.len(),
            descriptors.len()
        )));
    }
    let mut by_id = vec![None; descriptors.len()];
    for s in samples {
        let Some(slot) = by_id.get_mut(s.id as usize) else {
            return Err(SweepError::Protocol(format!("unknown sample id {}", s.id)));
        };
        if slot.replace((s.o, s.l)).is_some() {
            return Err(SweepError::Protocol(format!(
                "duplicate sample id {}",
                s.id
            )));
        }
    }
    (by_id.into_iter().enumerate())
        .map(|(id, s)| s.ok_or_else(|| SweepError::Protocol(format!("missing sample id {id}"))))
        .collect()
}

/// The measurement phase: representatives + probes, adaptive growth, and
/// the explosion safety valve. Returns class-space results only — matrix
/// materialization is the scatter phase's job, so this function's memory
/// footprint is independent of `P²`.
pub(crate) fn measure_classes(
    cores: &[usize],
    classing: &PairClassing,
    noise: NoiseModel,
    cfg: &SweepConfig,
    executor: &mut dyn DescriptorExecutor,
) -> Result<(ClassMeasurements, SweepReport), SweepError> {
    let p = classing.p();
    if cores.len() != p {
        return Err(SweepError::PlacementMismatch {
            classed: p,
            placed: cores.len(),
        });
    }

    // The members each class measures: representative first, then probes.
    let members: Vec<Vec<(u32, u32)>> = classing
        .classes
        .iter()
        .map(|c| {
            let mut m = vec![c.representative];
            m.extend_from_slice(&c.probes);
            m
        })
        .collect();

    // The measurement of one cell: the pair benchmark of `(i, j)` — both
    // families, or the one of the two that `measure = (O, L)` asks for —
    // or for `i == j` rank `i`'s transmission-free calls beside the idle
    // partner `(i + 1) % p`.
    let descriptor = |(i, j): (usize, usize), measure: (bool, bool), rep_scale: u32, id: u32| {
        let (kind, partner, sub_seed) = if i == j {
            (WorkKind::Diag, (i + 1) % p, diag_sub_seed(i, noise.seed))
        } else {
            let kind = match measure {
                (true, false) => WorkKind::PingPong,
                (false, true) => WorkKind::Burst,
                _ => WorkKind::Pair,
            };
            (kind, j, pair_sub_seed(i, j, noise.seed))
        };
        PairWorkDescriptor {
            id,
            kind,
            i: i as u32,
            j: partner as u32,
            core_a: cores[i] as u32,
            core_b: cores[partner] as u32,
            sub_seed,
            rep_scale,
        }
    };

    let mut samples: Vec<ClassSamples> = members
        .iter()
        .map(|m| ClassSamples {
            values: vec![(f64::NAN, f64::NAN); m.len()],
            rep_scale: (1, 1),
            growing: (true, true),
        })
        .collect();

    let mut measurements = 0usize;
    let mut growth_rounds = 0u32;

    // Grow while the relative scatter exceeds the tolerance, within the
    // round budget.
    let rule = StoppingRule {
        rel_tol: cfg.ci_rel_tol,
    };

    // Round 0 measures every class, both components; later rounds
    // re-measure a class only in the components whose scatter exceeds the
    // tolerance, at doubled repetitions — so every component a round
    // measures is at the same scale. Pair classes come before diagonal
    // ones in every round's batch.
    let mut pending: Vec<usize> = (0..members.len()).collect();
    let mut scale = 1u32;
    for round in 0..=cfg.max_growth_rounds {
        if pending.is_empty() {
            break;
        }
        if round > 0 {
            growth_rounds = round;
        }
        // Build the round's descriptors with a per-round id space, and a
        // side table mapping id → (class slot, member slot).
        let mut descriptors = Vec::new();
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for &c in &pending {
            let s = &mut samples[c];
            if s.growing.0 {
                s.rep_scale.0 = scale;
            }
            if s.growing.1 {
                s.rep_scale.1 = scale;
            }
            for (m, &(i, j)) in members[c].iter().enumerate() {
                let id = descriptors.len() as u32;
                descriptors.push(descriptor((i as usize, j as usize), s.growing, scale, id));
                slots.push((c, m));
            }
        }
        measurements += descriptors.len();
        let values = run_batch(executor, &descriptors, "descriptors")?;
        for (&(c, m), (o, l)) in slots.iter().zip(values) {
            let s = &mut samples[c];
            // Only what was measured is written.
            if s.growing.0 {
                s.values[m].0 = o;
            }
            if s.growing.1 {
                s.values[m].1 = l;
            }
        }

        // Decide what grows. Only classes with ≥ 2 samples have a scatter
        // estimate; singletons never grow, preserving exhaustive parity.
        if round == cfg.max_growth_rounds {
            break;
        }
        pending.retain(|&c| {
            let s = &mut samples[c];
            let (so, sl) = rel_spreads(&s.values);
            s.growing.0 &= rule.should_grow(so);
            s.growing.1 &= rule.should_grow(sl);
            s.growing.0 || s.growing.1
        });
        scale *= 2;
    }

    // Per-class estimates: the median over the class's samples. A
    // singleton class's estimate is exactly its (sole) measurement.
    let estimates: Vec<(f64, f64)> = samples.iter().map(|s| medians(&s.values)).collect();

    // Safety valve: a class whose *validated* scatter still exceeds
    // `explode_rel_tol` after all growth rounds abandons the clustering
    // shortcut — every member is measured individually at the base
    // schedule under its own sub-seed, so those matrix entries are
    // exactly what the exhaustive sweep would have produced.
    let explode: Vec<bool> = samples
        .iter()
        .map(|s| spread(&s.values) > cfg.explode_rel_tol)
        .collect();
    let mut exploded: HashMap<(usize, usize), (f64, f64)> = HashMap::new();
    if explode.contains(&true) {
        // Row by row: the row's pairs, then its diagonal.
        let mut descriptors = Vec::new();
        let mut cells = Vec::new();
        for i in 0..p {
            for j in classing.partners(i).chain([i]) {
                if explode[classing.class_of(i, j)] {
                    let id = descriptors.len() as u32;
                    descriptors.push(descriptor((i, j), (true, true), 1, id));
                    cells.push((i, j));
                }
            }
        }
        measurements += descriptors.len();
        let values = run_batch(executor, &descriptors, "exploded descriptors")?;
        exploded.extend(cells.into_iter().zip(values));
    }

    let class_stats = samples
        .iter()
        .map(|s| {
            let (rel_spread_o, rel_spread_l) = rel_spreads(&s.values);
            ClassStats {
                samples: s.values.len(),
                rep_scale_o: s.rep_scale.0,
                rep_scale_l: s.rep_scale.1,
                rel_spread_o,
                rel_spread_l,
            }
        })
        .collect();
    let (pairs, diags) = explode.split_at(classing.pair_classes);
    let report = SweepReport {
        total_pairs: classing.total_pairs,
        pair_classes: classing.pair_classes,
        diag_classes: diags.len(),
        measurements,
        growth_rounds,
        exploded_pair_classes: pairs.iter().filter(|&&b| b).count(),
        exploded_diag_classes: diags.iter().filter(|&&b| b).count(),
        class_stats,
    };

    Ok((
        ClassMeasurements {
            estimates,
            explode,
            exploded,
        },
        report,
    ))
}

/// The dense scatter: writes every matrix entry its class's estimate,
/// or its own exact measurement when the class exploded. Allocates the
/// full `|P|²` matrices; past P ≈ 4096 prefer the tiled class-grid scatter
/// in [`crate::scatter`].
pub(crate) fn scatter_dense(classing: &PairClassing, m: &ClassMeasurements) -> CostMatrices {
    let p = classing.p();
    let mut o = DenseMatrix::new(p);
    let mut l = DenseMatrix::new(p);
    for i in 0..p {
        for j in classing.partners(i).chain([i]) {
            let c = classing.class_of(i, j);
            let (oij, lij) = if m.explode[c] {
                m.exploded[&(i, j)]
            } else {
                m.estimates[c]
            };
            o[(i, j)] = oij;
            l[(i, j)] = lij;
            if classing.symmetric() {
                o[(j, i)] = oij;
                l[(j, i)] = lij;
            }
        }
    }
    CostMatrices { o, l }
}

/// Grow-until-tight: repetitions grow while the relative dispersion
/// exceeds `rel_tol`.
struct StoppingRule {
    /// Relative dispersion above which another growth round is taken.
    rel_tol: f64,
}

impl StoppingRule {
    /// Whether a sample set with dispersion `spread` warrants growing
    /// the repetition count.
    fn should_grow(&self, spread: f64) -> bool {
        spread > self.rel_tol
    }
}

/// The sample median: middle order statistic, or the mean of the two
/// middle order statistics for even lengths (`sort_unstable_by(
/// partial_cmp)` then `(x[n/2-1] + x[n/2]) / 2`).
///
/// # Panics
/// Panics on an empty slice or NaN samples.
fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite measurement"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Relative dispersion of samples about their median:
/// `max_i |x_i − median| / max(|median|, ε)`; `0` for fewer than two
/// samples (a singleton has no scatter evidence).
///
/// # Panics
/// Panics on NaN samples.
fn rel_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = median(xs);
    let denom = m.abs().max(1e-300);
    xs.iter().map(|x| (x - m).abs() / denom).fold(0.0, f64::max)
}

/// Relative scatter of the `(o, l)` samples around their medians,
/// component-wise [`rel_spread`].
fn rel_spreads(values: &[(f64, f64)]) -> (f64, f64) {
    let os: Vec<f64> = values.iter().map(|v| v.0).collect();
    let ls: Vec<f64> = values.iter().map(|v| v.1).collect();
    (rel_spread(&os), rel_spread(&ls))
}

/// The scatter the explode decision reads: the larger of the two
/// components' (a diagonal sample's `L` is 0, so its spread is 0).
fn spread(values: &[(f64, f64)]) -> f64 {
    let (so, sl) = rel_spreads(values);
    so.max(sl)
}

/// Component-wise [`median`]s of the `(o, l)` samples.
fn medians(values: &[(f64, f64)]) -> (f64, f64) {
    let os: Vec<f64> = values.iter().map(|v| v.0).collect();
    let ls: Vec<f64> = values.iter().map(|v| v.1).collect();
    (median(&os), median(&ls))
}

/// Sequential single-descriptor executor used by the worker loop and
/// available for debugging (no thread pool, same results).
pub struct SequentialExecutor {
    machine: MachineSpec,
    noise: NoiseModel,
    cfg: ProfilingConfig,
}

impl SequentialExecutor {
    /// Executor measuring on `machine` under `noise` with schedule `cfg`.
    pub fn new(machine: MachineSpec, noise: NoiseModel, cfg: ProfilingConfig) -> Self {
        SequentialExecutor {
            machine,
            noise,
            cfg,
        }
    }
}

impl DescriptorExecutor for SequentialExecutor {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        Ok(descriptors
            .iter()
            .map(|d| execute_descriptor(&self.machine, self.noise, &self.cfg, d))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sweep under `cfg`, executed on the local thread pool.
    fn local_sweep(
        machine: &MachineSpec,
        mapping: &RankMapping,
        p: usize,
        noise: NoiseModel,
        cfg: &SweepConfig,
    ) -> (TopologyProfile, SweepReport) {
        let mut local = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
        measure_profile_decomposed(machine, mapping, p, noise, cfg, &mut local).unwrap()
    }

    fn bit_equal(a: &CostMatrices, b: &CostMatrices) -> bool {
        a.o.as_slice()
            .iter()
            .zip(b.o.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.l
                .as_slice()
                .iter()
                .zip(b.l.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn median_matches_sweep_semantics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn rel_spread_matches_sweep_arithmetic() {
        assert_eq!(rel_spread(&[5.0]), 0.0);
        // median 10, worst |dev| 2 → 0.2.
        assert_eq!(rel_spread(&[8.0, 10.0, 12.0]), 0.2);
        // Zero median is ε-guarded, not a division by zero.
        assert!(rel_spread(&[-1.0, 0.0, 1.0]).is_finite());
    }

    #[test]
    fn stopping_rule_thresholds() {
        let rule = StoppingRule { rel_tol: 0.05 };
        assert!(rule.should_grow(0.0501));
        assert!(!rule.should_grow(0.05));
    }

    proptest! {
        /// A sample mirrored around `c` has median `c`.
        #[test]
        fn symmetric_samples_pin_the_median(
            half in prop::collection::vec(0.0f64..100.0, 1..40),
            c in -50.0f64..50.0,
            odd in any::<bool>(),
        ) {
            let mut xs: Vec<f64> = half.iter().flat_map(|&d| [c - d, c + d]).collect();
            if odd {
                xs.push(c);
            }
            prop_assert!((median(&xs) - c).abs() <= 1e-9f64.max(c.abs() * 1e-9));
        }

        /// Identical samples have zero spread, and the stopping rule
        /// never asks for more of them.
        #[test]
        fn constant_samples_are_converged(x in 0.1f64..1.0e6, n in 2usize..40) {
            let xs = vec![x; n];
            prop_assert_eq!(rel_spread(&xs), 0.0);
            prop_assert!(!StoppingRule { rel_tol: 0.05 }.should_grow(rel_spread(&xs)));
        }
    }

    #[test]
    fn exact_sweep_measures_every_pair_once() {
        let machine = MachineSpec::new(2, 2, 2);
        let mapping = RankMapping::RoundRobin;
        let noise = NoiseModel::realistic(11);
        let exact = SweepConfig::exact(ProfilingConfig::fast());
        let (_, report) = local_sweep(&machine, &mapping, 8, noise, &exact);
        assert_eq!((report.pair_classes, report.diag_classes), (8 * 7 / 2, 8));
        assert_eq!(report.measurements, 8 * 7 / 2 + 8);
        assert_eq!(report.growth_rounds, 0);
        assert!(report.class_stats.iter().all(|s| s.samples == 1));
    }

    #[test]
    fn zero_explosion_tolerance_degrades_to_exhaustive_bit_for_bit() {
        // With the explosion tolerance at 0, every class with any
        // measurable scatter is exploded: all members get measured
        // individually under their own sub-seeds, so the whole profile
        // must equal the exhaustive sweep bit for bit — *with topology
        // classing still on*.
        let machine = MachineSpec::dual_quad_cluster(2);
        let mapping = RankMapping::Block;
        let noise = NoiseModel::realistic(13);
        let exact = SweepConfig::exact(ProfilingConfig::fast());
        let (full, _) = local_sweep(&machine, &mapping, 16, noise, &exact);
        let sweep_cfg = SweepConfig {
            explode_rel_tol: 0.0,
            ..SweepConfig::fast()
        };
        let (clustered, report) = local_sweep(&machine, &mapping, 16, noise, &sweep_cfg);
        assert_eq!(report.exploded_pair_classes, 4);
        assert_eq!(report.exploded_diag_classes, 2);
        assert!(bit_equal(&full.cost, &clustered.cost));
        // Explosion re-measures all 120 pairs + 16 diags on top of the
        // class representatives and probes.
        assert!(report.measurements >= 120 + 16, "{}", report.measurements);
    }

    #[test]
    fn placement_that_disagrees_with_the_classing_is_rejected() {
        // The classing classes the first 12 of 16 placed ranks; measuring
        // it against all 16 used to run into pairs it had never seen.
        let machine = MachineSpec::dual_quad_cluster(2);
        let cores = RankMapping::Block.place(&machine, 16);
        let extractor = TopologyExtractor::default();
        let classing = classify_pairs(&machine, &cores, 12, &extractor, &ClassingConfig::default());
        let cfg = SweepConfig::fast();
        let noise = NoiseModel::none();
        let mut executor = SequentialExecutor::new(machine, noise, cfg.profiling.clone());
        let err = measure_classes(&cores, &classing, noise, &cfg, &mut executor)
            .err()
            .expect("16 placed ranks against 12 classed ones");
        assert!(matches!(
            err,
            SweepError::PlacementMismatch {
                classed: 12,
                placed: 16
            }
        ));
        assert!(measure_classes(&cores[..12], &classing, noise, &cfg, &mut executor).is_ok());
    }

    #[test]
    fn tight_classes_never_explode() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let (_, report) = local_sweep(
            &machine,
            &RankMapping::Block,
            16,
            NoiseModel::none(),
            &SweepConfig {
                explode_rel_tol: 0.05,
                ..SweepConfig::fast()
            },
        );
        assert_eq!(report.exploded_pair_classes, 0);
        assert_eq!(report.exploded_diag_classes, 0);
    }

    #[test]
    fn clustered_sweep_is_close_to_exhaustive_under_noise() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let mapping = RankMapping::Block;
        let noise = NoiseModel::realistic(5);
        let exact = SweepConfig::exact(ProfilingConfig::fast());
        let (full, _) = local_sweep(&machine, &mapping, 16, noise, &exact);
        let (clustered, report) = local_sweep(&machine, &mapping, 16, noise, &SweepConfig::fast());
        assert_eq!(report.pair_classes, 4);
        // Round 0 measures ≤ 18 descriptors (4 pair + 2 diag classes, ≤ 3
        // samples each); even with both growth rounds firing that is ≤ 54 —
        // well under the exhaustive 120 pairs + 16 diags.
        assert!(report.measurements <= 54, "{}", report.measurements);
        let mut worst = 0.0f64;
        for i in 0..16 {
            for j in 0..16 {
                if i == j {
                    continue;
                }
                let (a, b) = (clustered.cost.o[(i, j)], full.cost.o[(i, j)]);
                worst = worst.max((a - b).abs() / b);
                let (a, b) = (clustered.cost.l[(i, j)], full.cost.l[(i, j)]);
                worst = worst.max((a - b).abs() / b);
            }
        }
        assert!(worst < 0.2, "worst clustered-vs-full error {worst}");
    }

    #[test]
    fn clustered_profile_is_symmetric_and_complete() {
        let machine = MachineSpec::dual_hex_cluster(2);
        let (prof, _) = local_sweep(
            &machine,
            &RankMapping::RoundRobin,
            20,
            NoiseModel::realistic(3),
            &SweepConfig::fast(),
        );
        assert!(prof.cost.o.is_symmetric());
        assert!(prof.cost.l.is_symmetric());
        for i in 0..20 {
            assert!(prof.cost.o[(i, i)] > 0.0);
            assert_eq!(prof.cost.l[(i, i)], 0.0);
            for j in 0..20 {
                if i != j {
                    assert!(prof.cost.o[(i, j)] > 0.0, "hole at ({i},{j})");
                    assert!(prof.cost.l[(i, j)] > 0.0, "hole at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn local_executors_agree() {
        let machine = MachineSpec::new(2, 1, 2);
        let noise = NoiseModel::realistic(7);
        let cfg = SweepConfig::fast();
        let (a, _) = local_sweep(&machine, &RankMapping::Block, 4, noise, &cfg);
        let mut seq = SequentialExecutor::new(machine.clone(), noise, cfg.profiling.clone());
        let (b, _) =
            measure_profile_decomposed(&machine, &RankMapping::Block, 4, noise, &cfg, &mut seq)
                .unwrap();
        assert!(bit_equal(&a.cost, &b.cost));
    }

    #[test]
    fn adaptive_growth_triggers_on_loose_tolerance() {
        let machine = MachineSpec::dual_quad_cluster(2);
        // Absurdly tight tolerance: every multi-member class must grow to
        // the cap.
        let cfg = SweepConfig {
            ci_rel_tol: 1e-12,
            max_growth_rounds: 2,
            ..SweepConfig::fast()
        };
        let (_, report) = local_sweep(
            &machine,
            &RankMapping::Block,
            16,
            NoiseModel::realistic(1),
            &cfg,
        );
        assert_eq!(report.growth_rounds, 2);
        assert!(report.class_stats.iter().any(|s| s.rep_scale_o == 4));
        // And an infinite tolerance never grows.
        let cfg = SweepConfig {
            ci_rel_tol: f64::INFINITY,
            ..SweepConfig::fast()
        };
        let (_, report) = local_sweep(
            &machine,
            &RankMapping::Block,
            16,
            NoiseModel::realistic(1),
            &cfg,
        );
        assert_eq!(report.growth_rounds, 0);
    }

    /// Answers an `O` that differs from member to member and one `L` for
    /// all, recording the kind of every descriptor of every batch.
    struct LooseO(Vec<Vec<WorkKind>>);

    impl DescriptorExecutor for LooseO {
        fn execute_batch(
            &mut self,
            descriptors: &[PairWorkDescriptor],
        ) -> Result<Vec<PairSample>, SweepError> {
            self.0.push(descriptors.iter().map(|d| d.kind).collect());
            Ok(descriptors
                .iter()
                .map(|d| PairSample {
                    id: d.id,
                    o: 1e-6 * f64::from(1 + d.i + d.j),
                    l: 1e-7,
                })
                .collect())
        }
    }

    #[test]
    fn growth_rounds_rerun_only_the_component_that_missed() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let cfg = SweepConfig::fast();
        let mut loose = LooseO(Vec::new());
        let (_, report) = measure_profile_decomposed(
            &machine,
            &RankMapping::Block,
            16,
            NoiseModel::none(),
            &cfg,
            &mut loose,
        )
        .unwrap();
        assert_eq!(report.growth_rounds, 2);
        let [round0, growth @ ..] = &loose.0[..] else {
            panic!("no batch");
        };
        assert!(round0
            .iter()
            .all(|&k| k == WorkKind::Pair || k == WorkKind::Diag));
        assert_eq!(growth.len(), 2);
        for batch in growth {
            assert!(batch.contains(&WorkKind::PingPong));
            assert!(batch
                .iter()
                .all(|&k| k == WorkKind::PingPong || k == WorkKind::Diag));
        }
        for s in &report.class_stats[..report.pair_classes] {
            assert_eq!((s.rep_scale_l, s.rel_spread_l), (1, 0.0));
            assert_eq!(s.rep_scale_o, 4);
        }
    }

    #[test]
    fn report_reduction_factor_reflects_classing() {
        let machine = MachineSpec::dual_quad_cluster(4);
        let (_, report) = local_sweep(
            &machine,
            &RankMapping::Block,
            32,
            NoiseModel::none(),
            &SweepConfig::fast(),
        );
        // 3 pair classes + 2 diag classes, ≤ 3 probes each under fast()
        // (2 probes configured) → far fewer measurements than 496 + 32.
        assert!(report.reduction_factor(32) > 10.0);
        assert_eq!(report.total_pairs, 496);
    }

    #[test]
    fn noise_regime_quantization() {
        assert_eq!(noise_regime_of(&NoiseModel::none()), 0);
        let a = noise_regime_of(&NoiseModel::realistic(1));
        let b = noise_regime_of(&NoiseModel::realistic(99));
        assert_eq!(a, b, "seed must not affect the regime");
        let quiet = NoiseModel {
            jitter_sigma: 0.01,
            ..NoiseModel::realistic(1)
        };
        assert_ne!(a, noise_regime_of(&quiet));
    }

    #[test]
    fn descriptor_serde_roundtrip() {
        let d = PairWorkDescriptor {
            id: 7,
            kind: WorkKind::Pair,
            i: 3,
            j: 900_000,
            core_a: 12,
            core_b: 4095,
            sub_seed: 0xDEAD_BEEF_CAFE_F00D,
            rep_scale: 4,
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: PairWorkDescriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        let s = PairSample {
            id: 7,
            o: 1.25e-6,
            l: -0.0,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: PairSample = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, s.id);
        assert_eq!(back.o, s.o);
    }
}
