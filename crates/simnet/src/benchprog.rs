//! The §IV-A profiling workloads as two-rank program pairs.
//!
//! All three benchmarks measure between a *source* (local rank 0) and a
//! *destination* (local rank 1) placed on the two cores of interest:
//!
//! * [`ping_pong`] — one round trip at a given payload size; the
//!   Hockney-style `O_ij` estimate is the regression intercept of the
//!   one-way time over growing sizes;
//! * [`multi_message`] — a burst of `k` simultaneous zero-byte sends into
//!   pre-posted receives, timed from a `Mark` placed after a readiness
//!   handshake (the simulated analogue of calling `MPI_Wtime` after a
//!   barrier) so receive-posting overhead stays out of the sample; the
//!   `L_ij` estimate is the regression gradient of the burst span over
//!   `k = 1 … 32`;
//! * [`noop_calls`] — `k` transmission-free calls; their mean cost is the
//!   `O_ii` estimate.
//!
//! Every sample point is the **median of `reps` independent runs**, one
//! round (or burst) per run, each run under a fresh deterministic noise
//! sub-stream. Summarizing repetitions by a robust statistic over
//! independent executions — rather than averaging one long inlined run —
//! is the methodology Hunold & Carpen-Amarie ("MPI Benchmarking
//! Revisited") argue is required for reproducible MPI measurements, and
//! it keeps the noise model's rare preemption spikes from polluting a
//! whole sample point.
//!
//! [`PairBench`] is the amortized driver the profiling sweep uses: one
//! world (and therefore one engine) plus one pair of program buffers per
//! measured pair, rebuilt in place across the whole sizes × bursts
//! schedule so no construction cost repeats per sample point — and with
//! `reps` runs per point, none repeats per run either.

use crate::ns_to_sec;
use crate::program::Program;
use crate::world::SimWorld;
use hbar_topo::regress::median;

/// Label of the timing mark the burst benchmark places after its
/// readiness handshake.
pub const BURST_MARK: &str = "burst_start";

/// Fills `a`/`b` in place with the ping-pong pair: one round trip of
/// `bytes`-sized synchronous messages. Buffers are cleared first and
/// retain their capacity.
pub fn build_ping_pong(a: &mut Program, b: &mut Program, bytes: usize) {
    a.clear();
    b.clear();
    a.reserve(4);
    b.reserve(4);
    a.push_issend_bytes(1, bytes);
    a.push_wait_all();
    a.push_irecv(1);
    a.push_wait_all();
    b.push_irecv(0);
    b.push_wait_all();
    b.push_issend_bytes(0, bytes);
    b.push_wait_all();
}

/// Builds the ping-pong program pair: one round trip of `bytes`-sized
/// synchronous messages.
pub fn ping_pong(bytes: usize) -> (Program, Program) {
    let mut a = Program::new();
    let mut b = Program::new();
    build_ping_pong(&mut a, &mut b, bytes);
    (a, b)
}

/// Fills `a`/`b` in place with the multi-message burst pair: the
/// destination pre-posts `k` receives and signals readiness; the source
/// waits for the signal, records a [`BURST_MARK`] timestamp, then posts
/// `k` zero-byte synchronous sends and one completion wait. Timing the
/// span from the mark to the source's finish keeps the destination's
/// receive-posting overhead — serialized on its CPU *before* the signal —
/// out of the measured burst, so the regression gradient isolates the
/// steady-state per-message spacing `L`.
pub fn build_multi_message(a: &mut Program, b: &mut Program, k: usize) {
    assert!(k > 0, "need at least one message");
    a.clear();
    b.clear();
    a.reserve(k + 4);
    b.reserve(k + 2);
    a.push_irecv(1);
    a.push_wait_all();
    a.push_mark(BURST_MARK);
    for _ in 0..k {
        a.push_issend(1);
        b.push_irecv(0);
    }
    a.push_wait_all();
    b.push_issend(0);
    b.push_wait_all();
}

/// Builds the multi-message burst pair: `k` zero-byte synchronous sends
/// into pre-posted receives behind a readiness handshake.
pub fn multi_message(k: usize) -> (Program, Program) {
    let mut a = Program::new();
    let mut b = Program::new();
    build_multi_message(&mut a, &mut b, k);
    (a, b)
}

/// Fills `a`/`b` in place with the transmission-free call workload
/// (rank 0 active, rank 1 idle): one `NoOpCall` repeated `k` times, so
/// nothing is sized by `k`.
pub fn build_noop_calls(a: &mut Program, b: &mut Program, k: usize) {
    assert!(k > 0, "need at least one call");
    a.clear();
    b.clear();
    a.push_noop_call();
    a.set_reps(k);
}

/// Builds the transmission-free call program (single rank active): one
/// `NoOpCall` repeated `k` times.
pub fn noop_calls(k: usize) -> Program {
    assert!(k > 0, "need at least one call");
    Program::new().noop_call().repeated(k)
}

/// Amortized two-rank benchmark scratch: one reused world/engine, one
/// pair of program buffers refilled in place per sample point, and one
/// measurement buffer reused across the per-point repetition loop. After
/// the first (largest) build, no measurement allocates.
///
/// Each sample point binds its programs to the engine once and then only
/// rewinds between repetitions. The world and the buffers are both
/// private to this type and every method rebuilds before it binds, so no
/// run can see a binding older than its programs.
pub struct PairBench {
    world: SimWorld,
    progs: [Program; 2],
    times: Vec<f64>,
}

impl PairBench {
    /// Wraps a two-rank world.
    ///
    /// # Panics
    /// Panics if the world does not have exactly 2 ranks.
    pub fn new(world: SimWorld) -> Self {
        assert_eq!(world.p(), 2, "benchmark worlds have exactly two ranks");
        PairBench {
            world,
            progs: [Program::new(), Program::new()],
            times: Vec::new(),
        }
    }

    /// Measured one-way ping-pong time at `bytes`: the median of `reps`
    /// independent single-round runs.
    pub fn one_way(&mut self, bytes: usize, reps: usize) -> f64 {
        assert!(reps > 0, "need at least one repetition");
        let [a, b] = &mut self.progs;
        build_ping_pong(a, b, bytes);
        self.world.bind(&self.progs);
        self.times.clear();
        for _ in 0..reps {
            let f = self
                .world
                .run_finish0(&self.progs)
                .expect("benchmark programs cannot deadlock");
            self.times.push(ns_to_sec(f) / 2.0);
        }
        median(&mut self.times)
    }

    /// Measured `k`-message burst span (readiness mark → sender
    /// completion): the median of `reps` independent single-burst runs.
    pub fn burst(&mut self, k: usize, reps: usize) -> f64 {
        assert!(reps > 0, "need at least one repetition");
        let [a, b] = &mut self.progs;
        build_multi_message(a, b, k);
        self.world.bind(&self.progs);
        self.times.clear();
        for _ in 0..reps {
            let f = self
                .world
                .run_span0(&self.progs)
                .expect("benchmark programs cannot deadlock");
            self.times.push(ns_to_sec(f));
        }
        median(&mut self.times)
    }

    /// Skips `runs` independent runs: the next sample point draws the
    /// noise it would have drawn after that many runs of other points.
    pub(crate) fn skip_runs(&mut self, runs: u64) {
        self.world.skip_runs(runs);
    }

    /// Measured mean transmission-free call cost over `k` calls.
    pub fn noop(&mut self, k: usize) -> f64 {
        let [a, b] = &mut self.progs;
        build_noop_calls(a, b, k);
        self.world.bind(&self.progs);
        let f = self
            .world
            .run_finish0(&self.progs)
            .expect("no communication, cannot deadlock");
        ns_to_sec(f) / k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use crate::world::SimConfig;
    use crate::Time;
    use hbar_topo::machine::{LinkClass, MachineSpec};
    use hbar_topo::mapping::RankMapping;

    fn pair_bench(machine: MachineSpec, core_a: usize, core_b: usize) -> PairBench {
        let cfg = SimConfig::exact(machine, RankMapping::Custom(vec![core_a, core_b]));
        PairBench::new(SimWorld::new(cfg, 2))
    }

    /// One machine and core pair per link class.
    fn pair_per_class() -> [(MachineSpec, usize, usize, LinkClass); 3] {
        [
            (MachineSpec::new(1, 1, 2), 0, 1, LinkClass::SameSocket),
            (MachineSpec::new(1, 2, 1), 0, 1, LinkClass::CrossSocket),
            (MachineSpec::new(2, 1, 1), 0, 1, LinkClass::InterNode),
        ]
    }

    #[test]
    fn ping_pong_recovers_effective_o_inter_node() {
        let machine = MachineSpec::new(2, 1, 1);
        let gt = machine.ground_truth.clone();
        let one_way = pair_bench(machine, 0, 1).one_way(0, 10);
        let expect = gt.effective_o(LinkClass::InterNode);
        let rel = (one_way - expect).abs() / expect;
        assert!(rel < 0.02, "one-way {one_way} vs effective O {expect}");
    }

    #[test]
    fn ping_pong_scales_with_payload() {
        let machine = MachineSpec::new(2, 1, 1);
        let gt = machine.ground_truth.clone();
        let mut bench = pair_bench(machine, 0, 1);
        let small = bench.one_way(1, 5);
        let big = bench.one_way(1 << 20, 5);
        let per_byte = (big - small) / ((1 << 20) - 1) as f64;
        let expect = gt.link(LinkClass::InterNode).ns_per_byte * 1e-9;
        assert!(
            (per_byte - expect).abs() / expect < 0.05,
            "per-byte {per_byte} vs {expect}"
        );
    }

    #[test]
    fn burst_gradient_recovers_effective_l() {
        // The marginal cost of messages 8→16 approximates L (pipelined
        // spacing), for both a local and a remote pair.
        for (machine, a, b, class) in pair_per_class() {
            let gt = machine.ground_truth.clone();
            let mut bench = pair_bench(machine, a, b);
            let t8 = bench.burst(8, 5);
            let t16 = bench.burst(16, 5);
            let marginal = (t16 - t8) / 8.0;
            let expect = gt.effective_l(class);
            let rel = (marginal - expect).abs() / expect;
            assert!(rel < 0.15, "{class:?}: marginal {marginal} vs L {expect}");
        }
    }

    #[test]
    fn noop_mean_recovers_call_overhead() {
        let machine = MachineSpec::new(1, 1, 2);
        let gt = machine.ground_truth.clone();
        let mean = pair_bench(machine, 0, 1).noop(64);
        assert!((mean - gt.effective_oii()).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn burst_time_grows_monotonically_in_k() {
        let mut bench = pair_bench(MachineSpec::new(2, 1, 1), 0, 1);
        let mut prev = 0.0;
        for k in [1, 2, 4, 8, 16, 32] {
            let t = bench.burst(k, 3);
            assert!(t > prev, "k={k}: {t} <= {prev}");
            prev = t;
        }
    }

    #[test]
    fn pair_bench_matches_a_loop_of_world_runs() {
        // Bind-once parity: a sample point that binds its programs once
        // and rewinds between repetitions must equal, bit for bit, a loop
        // of `SimWorld::run` (which binds every call) over freshly built
        // programs — same run order ⇒ same run counter ⇒ same noise.
        fn median_of_runs(
            world: &mut SimWorld,
            progs: &[Program],
            reps: usize,
            sample: impl Fn(Time, Option<Time>) -> f64,
        ) -> f64 {
            let mut times: Vec<f64> = (0..reps)
                .map(|_| {
                    let res = world.run(progs).expect("benchmark programs complete");
                    sample(res.finish[0], res.marks[0].first().map(|m| m.1))
                })
                .collect();
            median(&mut times)
        }
        for (machine, a, b, class) in pair_per_class() {
            let cfg = SimConfig {
                machine,
                mapping: RankMapping::Custom(vec![a, b]),
                noise: NoiseModel::realistic(23),
            };
            let mut world = SimWorld::new(cfg.clone(), 2);
            let mut bench = PairBench::new(SimWorld::new(cfg, 2));
            // The profiling order: sizes, then bursts, then no-op calls,
            // each point re-binding over the previous one's programs.
            for bytes in [0, 1 << 10] {
                let (pa, pb) = ping_pong(bytes);
                let expect = median_of_runs(&mut world, &[pa, pb], 5, |finish, _| {
                    ns_to_sec(finish) / 2.0
                });
                let got = bench.one_way(bytes, 5);
                assert_eq!(got.to_bits(), expect.to_bits(), "{class:?} {bytes} B");
            }
            for k in [1, 8, 3] {
                let (pa, pb) = multi_message(k);
                let expect = median_of_runs(&mut world, &[pa, pb], 4, |finish, mark| {
                    ns_to_sec(finish - mark.expect("burst mark"))
                });
                let got = bench.burst(k, 4);
                assert_eq!(got.to_bits(), expect.to_bits(), "{class:?} burst {k}");
            }
            let expect = median_of_runs(
                &mut world,
                &[noop_calls(16), Program::new()],
                1,
                |finish, _| ns_to_sec(finish) / 16.0,
            );
            assert_eq!(bench.noop(16).to_bits(), expect.to_bits(), "{class:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_panics() {
        pair_bench(MachineSpec::new(2, 1, 1), 0, 1).one_way(0, 0);
    }
}
