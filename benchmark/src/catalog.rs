//! Every workload and metric the benchmark knows, by name and unit.
//!
//! `BENCHMARK.json` declares the same names (plus direction and bound);
//! `tests/consistency.rs` holds the two against each other and against
//! what a run actually emits.

use std::collections::BTreeMap;

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "pipeline_p1024",
    "scale_p8192",
    "retune_p1024",
    "serve_zipf",
];

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// A pure function of `--seed` (and `--smoke`) when the run is bounded
    /// by operation count (`--seconds 0`): equal across repeats and across
    /// thread counts. For the end-to-end metrics this holds for timed runs
    /// too, because they are taken over a fixed prefix of the operations.
    pub deterministic: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        deterministic: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        deterministic: true,
    }
}

/// What a user of the system sees; printed by an untraced run. Every
/// workload reports every one of them (see README.md for what each means
/// on each workload).
pub const END_TO_END: &[MetricDef] = &[
    timed("setup_s", "s"),
    timed("ready_ms", "ms"),
    timed("ops_per_s", "1/s"),
    timed("peak_rss_mb", "MiB"),
    exact("barrier_us", "us"),
    exact("speedup_vs_tree", "ratio"),
];

/// Single layers and per-workload detail; printed by a traced run. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Per-workload end-to-end detail behind `ready_ms` / `ops_per_s`.
    timed("cold_tune_s", "s"),
    timed("execute_s", "s"),
    timed("retune_s", "s"),
    timed("retune_p95_s", "s"),
    timed("serve_hit_p50_us", "us"),
    timed("serve_hit_p99_us", "us"),
    timed("serve_miss_p50_us", "us"),
    timed("serve_rps", "req/s"),
    timed("ops", "count"),
    exact("fail_frac", "ratio"),
    exact("barrier_sim_us", "us"),
    exact("barrier_pred_us", "us"),
    exact("pred_rel_err", "ratio"),
    exact("quality.tree_sim_us", "us"),
    exact("quality.dissemination_sim_us", "us"),
    exact("quality.linear_sim_us", "us"),
    // Profiling sweep.
    timed("simnet.sweep.profile_s", "s"),
    timed("simnet.sweep.measure_s", "s"),
    timed("simnet.sweep.driver_s", "s"),
    timed("simnet.sweep.useful_frac", "ratio"),
    exact("simnet.sweep.descriptors", "count"),
    exact("simnet.sweep.batches", "count"),
    timed("core.pairs.classify_s", "s"),
    timed("core.pairs.pairs_per_s", "1/s"),
    exact("core.pairs.classes", "count"),
    exact("simnet.scatter.tiles", "count"),
    exact("simnet.scatter.spilled_tiles", "count"),
    exact("simnet.scatter.spill_bytes", "bytes"),
    exact("simnet.scatter.staged_peak_bytes", "bytes"),
    exact("topo.compressed.model_bytes", "bytes"),
    exact("topo.cost.dense_bytes", "bytes"),
    // Tuner.
    timed("topo.cost.fingerprint_s", "s"),
    timed("topo.metric.build_s", "s"),
    timed("core.sss.tree_s", "s"),
    exact("core.sss.clusters", "count"),
    timed("core.compose.tune_s", "s"),
    timed("core.compose.compose_s", "s"),
    timed("core.compose.memo_tune_s", "s"),
    exact("core.cost.memo_scores", "count"),
    exact("core.compose.stages", "count"),
    exact("core.compose.signals", "count"),
    timed("core.verify.is_barrier_s", "s"),
    timed("core.codegen.compile_s", "s"),
    timed("core.codegen.emit_c_s", "s"),
    exact("core.codegen.c_bytes", "bytes"),
    timed("core.cost.predict_s", "s"),
    // Output checks, timed (outside every end-to-end figure).
    timed("analyze.schedule_s", "s"),
    timed("analyze.programs_s", "s"),
    exact("analyze.diagnostics", "count"),
    // Simulated execution.
    timed("simnet.world.build_s", "s"),
    timed("simnet.barrier.programs_s", "s"),
    timed("simnet.engine.run_s", "s"),
    exact("simnet.engine.events", "count"),
    timed("simnet.engine.events_per_s", "1/s"),
    timed("simnet.engine.ns_per_event", "ns"),
    // Service.
    timed("serve.proto.encode_req_ns_p16", "ns"),
    timed("serve.proto.encode_req_ns_p64", "ns"),
    timed("serve.proto.decode_req_ns_p16", "ns"),
    timed("serve.proto.decode_req_ns_p64", "ns"),
    timed("serve.proto.cache_key_ns_p16", "ns"),
    timed("serve.proto.cache_key_ns_p64", "ns"),
    exact("serve.proto.req_bytes_p16", "bytes"),
    exact("serve.proto.req_bytes_p64", "bytes"),
    timed("serve.cache.get_ns", "ns"),
    timed("serve.cache.insert_ns", "ns"),
    exact("serve.cache.hit_rate", "ratio"),
    exact("serve.stats.requests", "count"),
    timed("serve.stats.hits", "count"),
    timed("serve.stats.misses", "count"),
    timed("serve.stats.coalesced", "count"),
    timed("serve.stats.tunes", "count"),
    exact("serve.stats.errors", "count"),
    timed("serve.stats.cache_entries", "count"),
    timed("serve.stats.cache_bytes", "bytes"),
    timed("serve.stats.cache_evictions", "count"),
    timed("serve.proc.ctx_switches_per_req", "count"),
    // Process and recorder.
    timed("proc.threads", "count"),
    timed("proc.cpu_user_s", "s"),
    timed("proc.cpu_sys_s", "s"),
    timed("proc.minflt", "count"),
    timed("trace.episode_s", "s"),
    timed("trace.self_sum_frac", "ratio"),
    timed("trace.root_self_frac", "ratio"),
    timed("trace.overhead_frac", "ratio"),
];

/// Metric values of one run, by declared name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics if `name` is not declared in this file, or if the value is
    /// not finite: both are bugs in the benchmark, not measurements.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in catalog.rs"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.0.insert(def.name, value);
    }

    /// The recorded value, or 0 for a metric this workload does not have.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
