//! `serve_zipf`: the tuning service over loopback. One daemon (16 cache
//! shards, 1 tuner worker), one client connection, a fleet of distinct
//! cost matrices requested with Zipf(1) popularity against a cache that
//! holds three quarters of them — so hits, misses and evictions all occur.
//!
//! Closed loop: the callers are job launchers that wait for their barrier.
//! Phase A sends one request and waits for its answer; phase B keeps a
//! window of 64 in flight on the same connection, so a batching gain that
//! costs single-request latency shows up as one number improving and the
//! other regressing.

use crate::checks::response_matches;
use crate::inputs::{serve_fleet, SplitMix64, Zipf};
use crate::procfs::{context_switches, peak_rss_mib};
use crate::run::{trace_metrics, Ctx, Daemon, Outcome, SETUP_REPEATS};
use crate::spans::episodes;
use crate::stats::{mean, median, quantile};
use hbar_core::algorithms::Algorithm;
use hbar_core::compose::tune_hybrid_costs;
use hbar_core::cost::CostEvaluator;
use hbar_serve::cache::{CacheConfig, ShardedCache};
use hbar_serve::client::{TuneClient, TuneReply};
use hbar_serve::proto::{TuneRequest, TuneResponse};
use hbar_serve::server::ServeConfig;
use hbar_topo::cost::CostProvider;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Requests in flight in phase B.
const WINDOW: usize = 64;
/// One response in this many is compared with a local tune.
const CHECK_EVERY: u64 = 64;

struct Sizes {
    fleet: usize,
    ranks: [usize; 2],
    cache_capacity: usize,
    /// Requests per phase the run makes at least.
    prefix: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                fleet: 64,
                ranks: [8, 16],
                cache_capacity: 48,
                prefix: 2_000,
            }
        } else {
            Sizes {
                fleet: 512,
                ranks: [16, 64],
                cache_capacity: 384,
                prefix: 20_000,
            }
        }
    }

    fn cache(&self) -> CacheConfig {
        CacheConfig {
            shards: 16,
            capacity: self.cache_capacity,
            ..CacheConfig::default()
        }
    }
}

/// What a local tune of `req` produces: the schedule as the service
/// encodes it, and its predicted cost.
pub fn local_answer(req: &TuneRequest) -> (String, f64) {
    let members: Vec<usize> = (0..req.cost.p()).collect();
    let tuned = tune_hybrid_costs(&req.cost, &members, &req.tuner_config());
    let json = serde_json::to_string(&tuned.schedule).expect("a schedule serializes");
    (json, tuned.predicted_cost)
}

/// Daemon, connection and request stream of one run.
struct Session {
    requests: Vec<TuneRequest>,
    /// Local answers, by fleet index, computed on first need.
    expected: BTreeMap<usize, (String, f64)>,
    client: TuneClient,
    next_id: u64,
    attempted: u64,
    failed: u64,
    // Declared last: the daemon must outlive the client that talks to it.
    daemon: Daemon,
}

impl Session {
    /// Sends request `k` of the fleet; returns the id it carries.
    fn send(&mut self, k: usize) -> std::io::Result<u64> {
        self.next_id += 1;
        self.requests[k].id = self.next_id;
        self.client.send(&self.requests[k])?;
        Ok(self.next_id)
    }

    /// Receives one answer. A `TUNE_ERR` or an I/O error is `None`.
    fn recv(&mut self) -> Option<TuneResponse> {
        match self.client.recv() {
            Ok(TuneReply::Ok(resp)) => Some(resp),
            Ok(TuneReply::Err { .. }) | Err(_) => None,
        }
    }

    /// Books one completed request; every `CHECK_EVERY`-th answer is also
    /// compared with a local tune of the same request.
    fn book(&mut self, k: usize, id: u64, resp: Option<&TuneResponse>) {
        self.attempted += 1;
        let ok = match resp {
            None => false,
            Some(resp) if id.is_multiple_of(CHECK_EVERY) => {
                let req = &self.requests[k];
                let local = self.expected.entry(k).or_insert_with(|| local_answer(req));
                response_matches(resp, id, local)
            }
            Some(resp) => resp.id == id,
        };
        self.failed += u64::from(!ok);
    }
}

struct Setup {
    session: Session,
    pred_us: f64,
    speedup_vs_tree: f64,
}

/// Fleet, daemon, connection, and a cache-fill pass that requests every
/// fleet entry once, least popular first, so that the popular head is what
/// the cache holds when timing starts.
fn set_up(sizes: &Sizes, seed: u64) -> Setup {
    let fleet = serve_fleet(sizes.fleet, sizes.ranks, seed);
    let requests: Vec<TuneRequest> = fleet
        .into_iter()
        .map(|cost| TuneRequest::new(0, cost))
        .collect();
    let daemon = Daemon::spawn(&ServeConfig {
        cache: sizes.cache(),
        workers: 1,
    })
    .expect("bind a loopback port");
    let client = TuneClient::connect(daemon.addr()).expect("connect to the daemon");
    let mut session = Session {
        requests,
        expected: BTreeMap::new(),
        client,
        next_id: 0,
        attempted: 0,
        failed: 0,
        daemon,
    };
    let trees = sizes.ranks.map(|p| {
        let members: Vec<usize> = (0..p).collect();
        Algorithm::Tree.full_schedule(p, &members)
    });
    let mut eval = CostEvaluator::new(hbar_core::CostParams::default());
    let mut pred_us = Vec::new();
    let mut speedups = Vec::new();
    for k in (0..sizes.fleet).rev() {
        let sent = session.send(k);
        let resp = sent.as_ref().ok().and_then(|_| session.recv());
        session.book(k, sent.unwrap_or(0), resp.as_ref());
        if let Some(resp) = resp {
            let cost = &session.requests[k].cost;
            let tree = &trees[usize::from(cost.p() == sizes.ranks[1])];
            pred_us.push(resp.predicted_cost * 1e6);
            speedups.push(eval.barrier_cost(tree, cost, None) / resp.predicted_cost);
        }
    }
    Setup {
        session,
        pred_us: mean(&pred_us),
        speedup_vs_tree: mean(&speedups),
    }
}

/// Nanoseconds per call of `f`, median of five batches.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let sizes = Sizes::new(ctx.smoke);
    let rec = ctx.rec;
    let mut out = Outcome::default();

    // --- set-up, several times over ------------------------------------
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Shut the previous daemon down before the next one is timed.
        drop(last.take());
        let started = Instant::now();
        let s = set_up(&sizes, ctx.seed);
        setup_s.push(started.elapsed().as_secs_f64());
        out.attempted += s.session.attempted;
        out.failed += s.session.failed;
        last = Some(s);
    }
    let Setup {
        session: mut s,
        pred_us,
        speedup_vs_tree,
    } = last.expect("set up at least once");
    (s.attempted, s.failed) = (0, 0);
    let zipf = Zipf::new(sizes.fleet, 1.0);
    let mut rng = SplitMix64::new(ctx.seed, 0x21bf);

    // --- phase A: one request at a time -----------------------------------
    let mut hit_s = Vec::new();
    let mut miss_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut done = 0;
    let started = Instant::now();
    while ctx.keep_going(started, 0.5, done, sizes.prefix) {
        let k = zipf.sample(&mut rng);
        // A traced run records every `CHECK_EVERY`-th request.
        let traced = ctx.trace && (s.next_id + 1).is_multiple_of(CHECK_EVERY);
        rec.set_enabled(traced);
        rec.set_episode(done as u32);
        let root = rec.span("episode");
        let t = Instant::now();
        let sent = {
            let _s = rec.span("send");
            s.send(k)
        };
        let resp = {
            let _s = rec.span("recv");
            sent.as_ref().ok().and_then(|_| s.recv())
        };
        let dt = t.elapsed().as_secs_f64();
        {
            let _s = rec.span("check");
            s.book(k, sent.as_ref().map_or(0, |&id| id), resp.as_ref());
        }
        drop(root);
        done += 1;
        match resp {
            Some(r) if r.cache_hit => {
                (if traced { &mut traced_s } else { &mut hit_s }).push(dt);
            }
            Some(_) => miss_s.push(dt),
            // The connection state is unknown after a lost answer.
            None => break,
        }
    }
    rec.set_enabled(false);
    let phase_a_requests = done;
    let phase_a_hits = hit_s.len() + traced_s.len();

    // --- phase B: a window in flight ----------------------------------------
    let switches_before = context_switches();
    let mut windows_s = 0.0;
    let mut done = 0;
    let mut in_flight: Vec<(usize, u64, bool)> = Vec::with_capacity(WINDOW);
    let started = Instant::now();
    'windows: while ctx.keep_going(started, 0.5, done, sizes.prefix) {
        in_flight.clear();
        let mut answers = Vec::with_capacity(WINDOW);
        let t = Instant::now();
        for _ in 0..WINDOW {
            let k = zipf.sample(&mut rng);
            match s.send(k) {
                Ok(id) => in_flight.push((k, id, false)),
                Err(_) => {
                    s.book(k, 0, None);
                    break 'windows;
                }
            }
        }
        for _ in 0..WINDOW {
            answers.push(s.recv());
        }
        windows_s += t.elapsed().as_secs_f64();
        // Booking (and the local tunes it may need) is not service time.
        // Hits overtake misses, so answers are matched to requests by id;
        // a request left without its own answer has failed.
        let first_id = in_flight[0].1;
        for resp in answers.iter().flatten() {
            let slot = resp.id.checked_sub(first_id).map(|i| i as usize);
            if let Some((k, id, answered)) = slot.and_then(|i| in_flight.get_mut(i)) {
                if !*answered {
                    *answered = true;
                    s.book(*k, *id, Some(resp));
                }
            }
        }
        let lost: Vec<_> = in_flight.iter().filter(|f| !f.2).collect();
        for &&(k, id, _) in &lost {
            s.book(k, id, None);
        }
        done += WINDOW;
        if !lost.is_empty() {
            break;
        }
    }
    let switches = context_switches() - switches_before;
    let stats = s.client.stats();
    out.attempted += s.attempted;
    out.failed += s.failed + u64::from(stats.is_err());

    // --- end-to-end ------------------------------------------------------
    let m = &mut out.metrics;
    hit_s.extend_from_slice(&traced_s);
    let rps = done as f64 / windows_s;
    m.set("setup_s", median(&setup_s));
    m.set("ready_ms", median(&hit_s) * 1e3);
    m.set("ops_per_s", rps);
    m.set("peak_rss_mb", peak_rss_mib());
    m.set("barrier_us", pred_us);
    m.set("speedup_vs_tree", speedup_vs_tree);

    // --- per-layer -------------------------------------------------------
    m.set("serve_hit_p50_us", median(&hit_s) * 1e6);
    m.set("serve_hit_p99_us", quantile(&hit_s, 0.99) * 1e6);
    m.set("serve_miss_p50_us", median(&miss_s) * 1e6);
    m.set("serve_rps", rps);
    m.set("ops", (phase_a_requests + done) as f64);
    m.set("fail_frac", out.failed as f64 / out.attempted as f64);
    m.set("barrier_pred_us", pred_us);
    m.set(
        "serve.cache.hit_rate",
        phase_a_hits as f64 / phase_a_requests as f64,
    );
    m.set("serve.proc.ctx_switches_per_req", switches / done as f64);
    if let Ok(st) = &stats {
        for (name, v) in [
            ("serve.stats.requests", st.requests),
            ("serve.stats.hits", st.hits),
            ("serve.stats.misses", st.misses),
            ("serve.stats.coalesced", st.coalesced),
            ("serve.stats.tunes", st.tunes),
            ("serve.stats.errors", st.errors),
            ("serve.stats.cache_entries", st.cache_entries),
            ("serve.stats.cache_bytes", st.cache_bytes),
            ("serve.stats.cache_evictions", st.cache_evictions),
        ] {
            m.set(name, v as f64);
        }
    }
    if ctx.trace {
        // The proto and cache layers on their own, per request size.
        let mut buf = Vec::new();
        for (req, tag) in [(&s.requests[0], "p16"), (&s.requests[3], "p64")] {
            let set = |m: &mut crate::catalog::Metrics, what: &str, v: f64| {
                m.set(&format!("serve.proto.{what}_{tag}"), v);
            };
            set(
                m,
                "encode_req_ns",
                ns_per_call(2_000, || req.encode_into(&mut buf)),
            );
            set(m, "req_bytes", buf.len() as f64);
            set(
                m,
                "decode_req_ns",
                ns_per_call(2_000, || {
                    black_box(TuneRequest::decode(black_box(&buf)).expect("own encoding"));
                }),
            );
            set(
                m,
                "cache_key_ns",
                ns_per_call(2_000, || {
                    black_box(black_box(req).cache_key());
                }),
            );
        }
        let keys: Vec<_> = s.requests.iter().map(TuneRequest::cache_key).collect();
        let cache: ShardedCache<u64> = ShardedCache::new(&sizes.cache());
        let mut turn = 0usize;
        m.set(
            "serve.cache.insert_ns",
            ns_per_call(20_000, || {
                turn += 1;
                cache.insert(keys[turn % keys.len()], turn as u64, 1024);
            }),
        );
        m.set(
            "serve.cache.get_ns",
            ns_per_call(20_000, || {
                turn += 1;
                black_box(cache.get(&keys[turn % keys.len()]));
            }),
        );
        m.set(
            "topo.cost.fingerprint_s",
            ns_per_call(2_000, || {
                black_box(black_box(&s.requests[3].cost).fingerprint());
            }) * 1e-9,
        );
        let eps = episodes(&rec.spans());
        trace_metrics(m, &eps, &traced_s, &hit_s[..hit_s.len() - traced_s.len()]);
    }

    out.factors = vec![
        (
            "fleet",
            format!(
                "{} jittered ground-truth matrices, P in {:?} 3:1, block placement",
                sizes.fleet, sizes.ranks
            ),
        ),
        ("popularity", "Zipf(1.0)".to_string()),
        (
            "daemon",
            format!(
                "loopback, 16 shards, cache cap {}, 1 worker",
                sizes.cache_capacity
            ),
        ),
        (
            "load",
            format!("closed loop, 1 connection; phase A window 1, phase B window {WINDOW}"),
        ),
        ("prefix_requests_per_phase", sizes.prefix.to_string()),
    ];
    // Close the connection before the daemon is told to stop.
    let Session { client, daemon, .. } = s;
    let _ = client.drain();
    drop(daemon);
    out
}
