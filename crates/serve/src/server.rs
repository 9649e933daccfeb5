//! The `hbar serve` daemon: accept loop, per-connection readers, the
//! in-flight coalescing map, and the bounded tuner pool.
//!
//! ## Hot path (cache hit)
//!
//! reader thread → [`RequestHead::parse`] (one pass over the payload
//! that checks every entry and computes the cache key; no matrix is
//! built) → sharded-cache `get` → encode response into the
//! connection's buffered writer. No tuner, no pool hand-off, no flush
//! until the reader is about to block (so a client pipelining a window
//! of requests gets the whole window's answers in one syscall burst).
//! A malformed request, a non-finite or negative cost among them, is
//! answered `TUNE_ERR` before the cache is consulted.
//!
//! ## Miss path
//!
//! The reader re-checks the cache *under the in-flight lock* (closing
//! the window where a tune completed between the first probe and the
//! lock), then either joins an existing flight (coalesced: the tune
//! runs once no matter how many connections ask, and the joiner never
//! builds the matrices) or registers a new flight, builds the request's
//! matrices from the checked bytes, and enqueues a job for the pool. Pool workers own a reusable
//! [`CostEvaluator`] each, so scratch arenas and derived-topology
//! caches amortize across requests; results are published to the cache
//! *before* the flight is removed, which makes the
//! `tunes == distinct keys` invariant hold under any interleaving:
//! a reader that misses the cache and then finds no flight can only
//! mean the artifact is already cached (its peek happens under the same
//! lock that removal happens under).
//!
//! Worker responses are flushed immediately — the owning reader may be
//! blocked in `read` and unable to flush on the waiters' behalf.
//!
//! ## Generated C
//!
//! A tune caches its schedule's JSON only. The first response owed to a
//! `REQ_WANT_CODE` requester — a coalesced waiter on the worker or a hit
//! on a reader — compiles that JSON back into C once per cache entry and
//! re-charges the entry's weight by it; clients that never ask for code
//! never pay for it.

use crate::cache::{CacheConfig, ShardedCache};
use crate::frame::{read_frame_into, write_frame_buffered, FRAME_DRAIN, FRAME_SHUTDOWN};
use crate::proto::{
    encode_tune_error, CacheKey, RequestHead, ServeStats, TuneRequest, FRAME_STATS_REQ,
    FRAME_STATS_RESP, FRAME_TUNE_ERR, FRAME_TUNE_REQ, FRAME_TUNE_RESP, REQ_WANT_CODE,
};
use hbar_core::codegen::{c_source, compile_schedule};
use hbar_core::compose::tune_hybrid_costs_with;
use hbar_core::cost::CostEvaluator;
use hbar_core::{BarrierSchedule, CostParams};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Name codegen uses for served barrier functions.
pub const SERVED_BARRIER_NAME: &str = "served_barrier";

/// Daemon shape: cache geometry and pool size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Schedule-cache geometry.
    pub cache: CacheConfig,
    /// Tuner pool threads (≥ 1).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache: CacheConfig::default(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .clamp(2, 8),
        }
    }
}

/// A cached tune result: the schedule's JSON and prediction, which
/// answer every request with its cache key, and a slot for its
/// generated C, which the first client that asks for code fills.
struct TunedArtifact {
    predicted_cost: f64,
    schedule_json: String,
    code_c: OnceLock<String>,
}

impl TunedArtifact {
    /// Everything the cache keeps of one tune: the JSON of its schedule,
    /// which is checked against Eq. 3 first (never cache a non-barrier).
    /// No C is emitted here.
    ///
    /// # Panics
    /// Panics if the schedule is not a barrier — a tuner bug; the worker
    /// catches the panic and answers `TUNE_ERR` with its message.
    fn build(
        schedule: &BarrierSchedule,
        predicted_cost: f64,
        eval: &mut CostEvaluator,
    ) -> TunedArtifact {
        assert!(
            eval.is_barrier(schedule),
            "tuned schedule is not a barrier: it fails the Eq. 3 knowledge closure"
        );
        let schedule_json = serde_json::to_string(schedule).expect("schedule serializes");
        TunedArtifact {
            predicted_cost,
            schedule_json,
            code_c: OnceLock::new(),
        }
    }

    /// The generated C, emitted by the first call from the artifact's own
    /// JSON; later and concurrent calls wait for and share that string.
    /// The flag says whether this call emitted it.
    ///
    /// Neither step can fail: `compile_schedule` has no error case, and
    /// `c_source` refuses only an invalid name, which
    /// [`SERVED_BARRIER_NAME`] is not.
    fn code(&self) -> (&str, bool) {
        let mut emitted = false;
        let code = self.code_c.get_or_init(|| {
            emitted = true;
            let schedule: BarrierSchedule =
                serde_json::from_str(&self.schedule_json).expect("cached schedule JSON parses");
            let programs = compile_schedule(&schedule).expect("a schedule always compiles");
            let mut code = c_source(SERVED_BARRIER_NAME, &programs).expect("a valid C name");
            code.shrink_to_fit();
            code
        });
        (code, emitted)
    }

    /// Resident bytes, charged against the cache budget. This must
    /// follow every heap allocation the artifact keeps alive: its JSON,
    /// and its C once emitted.
    fn weight(&self) -> usize {
        self.schedule_json.capacity()
            + self.code_c.get().map_or(0, String::capacity)
            + std::mem::size_of::<TunedArtifact>()
            + 64
    }
}

/// One registered response obligation of an in-flight tune.
struct Waiter {
    conn: Arc<Conn>,
    id: u64,
    want_code: bool,
}

/// One queued cache-miss tune.
struct TuneJob {
    key: CacheKey,
    req: TuneRequest,
}

/// Per-connection shared state: the buffered writer (shared between the
/// reader thread and pool workers) and the count of pool answers still
/// owed to this connection (drain waits on it).
struct Conn {
    writer: Mutex<ConnWriter>,
    pending: Mutex<usize>,
    pending_cv: Condvar,
}

struct ConnWriter {
    w: BufWriter<TcpStream>,
    scratch: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            writer: Mutex::new(ConnWriter {
                w: BufWriter::new(stream),
                scratch: Vec::new(),
            }),
            pending: Mutex::new(0),
            pending_cv: Condvar::new(),
        }
    }

    fn flush(&self) -> io::Result<()> {
        self.writer.lock().expect("writer lock").w.flush()
    }

    /// Encodes and writes one artifact response carrying `code` (empty
    /// unless the client asked for it). Pool workers flush
    /// (`flush: true`); the reader defers flushing until it is about to
    /// block, batching a pipelined window into few syscalls.
    fn respond_artifact(
        &self,
        id: u64,
        cache_hit: bool,
        artifact: &TunedArtifact,
        code: &str,
        flush: bool,
    ) -> io::Result<()> {
        let mut wr = self.writer.lock().expect("writer lock");
        let ConnWriter { w, scratch } = &mut *wr;
        scratch.clear();
        scratch.reserve(25 + artifact.schedule_json.len() + code.len());
        scratch.extend_from_slice(&id.to_le_bytes());
        scratch.push(u8::from(cache_hit));
        scratch.extend_from_slice(&artifact.predicted_cost.to_le_bytes());
        scratch.extend_from_slice(&(artifact.schedule_json.len() as u32).to_le_bytes());
        scratch.extend_from_slice(artifact.schedule_json.as_bytes());
        scratch.extend_from_slice(&(code.len() as u32).to_le_bytes());
        scratch.extend_from_slice(code.as_bytes());
        write_frame_buffered(w, FRAME_TUNE_RESP, scratch)?;
        if flush {
            w.flush()?;
        }
        Ok(())
    }

    fn respond_error(&self, id: u64, reason: &str, flush: bool) -> io::Result<()> {
        let mut wr = self.writer.lock().expect("writer lock");
        let ConnWriter { w, scratch } = &mut *wr;
        encode_tune_error(id, reason, scratch);
        write_frame_buffered(w, FRAME_TUNE_ERR, scratch)?;
        if flush {
            w.flush()?;
        }
        Ok(())
    }

    fn inc_pending(&self) {
        *self.pending.lock().expect("pending lock") += 1;
    }

    fn dec_pending(&self) {
        let mut p = self.pending.lock().expect("pending lock");
        *p -= 1;
        if *p == 0 {
            self.pending_cv.notify_all();
        }
    }

    /// Blocks until every pool answer owed to this connection has been
    /// written (bounded, so a wedged pool cannot hold a drain hostage
    /// forever).
    fn wait_pending_zero(&self) {
        let deadline = Duration::from_secs(60);
        let mut p = self.pending.lock().expect("pending lock");
        while *p > 0 {
            let (guard, timeout) = self
                .pending_cv
                .wait_timeout(p, deadline)
                .expect("pending lock");
            p = guard;
            if timeout.timed_out() {
                break;
            }
        }
    }
}

/// Process-wide server state shared by the accept loop, readers, and
/// the pool.
struct Shared {
    cache: ShardedCache<Arc<TunedArtifact>>,
    inflight: Mutex<HashMap<CacheKey, Vec<Waiter>>>,
    queue: Mutex<VecDeque<TuneJob>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    addr: SocketAddr,
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    tunes: AtomicU64,
    errors: AtomicU64,
}

impl Shared {
    fn new(cache: &CacheConfig, addr: SocketAddr) -> Shared {
        Shared {
            cache: ShardedCache::new(cache),
            inflight: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            addr,
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            tunes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> ServeStats {
        let c = self.cache.counters();
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            tunes: self.tunes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_entries: c.entries,
            cache_bytes: c.bytes,
            cache_evictions: c.evictions,
        }
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The C a response to `artifact`, cached under `key`, carries: empty
    /// unless `want_code`. The call that emits the code re-charges the
    /// entry's weight, if the entry is still resident.
    fn code_for<'a>(
        &self,
        key: &CacheKey,
        artifact: &'a TunedArtifact,
        want_code: bool,
    ) -> &'a str {
        if !want_code {
            return "";
        }
        let (code, emitted) = artifact.code();
        if emitted {
            self.cache.reweigh(key, |resident| resident.weight());
        }
        code
    }
}

/// Runs the daemon on `listener` until a `FRAME_SHUTDOWN` arrives.
/// Blocks the calling thread; the CLI entry point. In-process users
/// (tests, benches) use [`ServerHandle::spawn`].
pub fn serve(listener: &TcpListener, cfg: &ServeConfig) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(&cfg.cache, addr));
    let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            // A vanished client is routine, not a server failure.
            let _ = handle_connection(&shared, stream);
        });
    }
    shared.queue_cv.notify_all();
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// An in-process server on an ephemeral (or given) port, for tests and
/// harnesses.
pub struct ServerHandle {
    addr: SocketAddr,
    join: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// Binds `listen` (use `127.0.0.1:0` for an ephemeral port) and
    /// serves on a background thread.
    pub fn spawn(listen: &str, cfg: &ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let cfg = cfg.clone();
        let join = std::thread::spawn(move || serve(&listener, &cfg));
        Ok(ServerHandle { addr, join })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends `FRAME_SHUTDOWN` and joins the server thread.
    pub fn shutdown(self) -> io::Result<()> {
        crate::client::shutdown_server(self.addr)?;
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// One pool worker: pops jobs, tunes with a reusable evaluator,
/// publishes to the cache, answers every coalesced waiter.
fn worker_loop(shared: &Shared) {
    let mut eval = CostEvaluator::new(CostParams::default());
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.queue_cv.wait(q).expect("queue lock");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let members: Vec<usize> = (0..job.req.cost.p()).collect();
            let cfg = job.req.tuner_config();
            let tuned = tune_hybrid_costs_with(&job.req.cost, &members, &cfg, &mut eval);
            TunedArtifact::build(&tuned.schedule, tuned.predicted_cost, &mut eval)
        }));
        if outcome.is_err() {
            // The evaluator's scratch state is suspect after a panic
            // mid-tune; rebuild it.
            eval = CostEvaluator::new(CostParams::default());
        }
        finish_flight(shared, job.key, outcome);
    }
}

/// Ends the flight of `key`: publishes the artifact and answers every
/// waiter with it, or — the tune panicked — caches nothing and answers
/// every waiter `TUNE_ERR` with the panic's message.
fn finish_flight(shared: &Shared, key: CacheKey, outcome: std::thread::Result<TunedArtifact>) {
    let outcome = outcome.map(|artifact| {
        let artifact = Arc::new(artifact);
        let weight = artifact.weight();
        // Publish before removing the flight: a reader that finds no
        // flight under the in-flight lock is then guaranteed to find
        // the cache entry.
        shared.cache.insert(key, Arc::clone(&artifact), weight);
        Shared::bump(&shared.tunes);
        artifact
    });
    let waiters = shared
        .inflight
        .lock()
        .expect("inflight lock")
        .remove(&key)
        .unwrap_or_default();
    match outcome {
        Ok(artifact) => {
            for w in waiters {
                let code = shared.code_for(&key, &artifact, w.want_code);
                let _ = w.conn.respond_artifact(w.id, false, &artifact, code, true);
                w.conn.dec_pending();
            }
        }
        Err(panic) => {
            let reason = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("tuner panicked");
            for w in waiters {
                Shared::bump(&shared.errors);
                let _ = w.conn.respond_error(w.id, reason, true);
                w.conn.dec_pending();
            }
        }
    }
}

/// One connection's reader loop.
fn handle_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone()?;
    let conn = Arc::new(Conn::new(stream));
    let mut reader = BufReader::new(read_half);
    let mut payload = Vec::new();
    loop {
        // Flush-before-block: everything buffered for this client goes
        // out before the reader parks itself waiting for more requests.
        if reader.buffer().is_empty() {
            conn.flush()?;
        }
        let tag = read_frame_into(&mut reader, &mut payload)?;
        match tag {
            FRAME_TUNE_REQ => handle_tune_request(shared, &conn, &payload)?,
            FRAME_STATS_REQ => {
                let json = serde_json::to_string(&shared.stats()).expect("stats serialize");
                let mut wr = conn.writer.lock().expect("writer lock");
                write_frame_buffered(&mut wr.w, FRAME_STATS_RESP, json.as_bytes())?;
            }
            FRAME_DRAIN => {
                conn.wait_pending_zero();
                let mut wr = conn.writer.lock().expect("writer lock");
                write_frame_buffered(&mut wr.w, FRAME_DRAIN, &[])?;
                wr.w.flush()?;
                return Ok(());
            }
            FRAME_SHUTDOWN => {
                shared.stop.store(true, Ordering::SeqCst);
                shared.queue_cv.notify_all();
                // Wake the accept loop so it observes the stop flag.
                let _ = TcpStream::connect(shared.addr);
                conn.flush()?;
                return Ok(());
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame tag {other:#x}"),
                ));
            }
        }
    }
}

/// Decides hit / coalesce / enqueue for one tune request.
fn handle_tune_request(shared: &Shared, conn: &Arc<Conn>, payload: &[u8]) -> io::Result<()> {
    Shared::bump(&shared.requests);
    let head = match RequestHead::parse(payload) {
        Ok(head) => head,
        Err(e) => {
            Shared::bump(&shared.errors);
            // Salvage the id when at least the first field arrived, so
            // a pipelining client can still correlate the failure.
            let id = payload
                .get(0..8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                .unwrap_or(0);
            return conn.respond_error(id, &e.to_string(), false);
        }
    };
    let key = head.key;
    let want_code = head.flags & REQ_WANT_CODE != 0;
    if let Some(artifact) = shared.cache.get(&key) {
        Shared::bump(&shared.hits);
        let code = shared.code_for(&key, &artifact, want_code);
        return conn.respond_artifact(head.id, true, &artifact, code, false);
    }
    let mut inflight = shared.inflight.lock().expect("inflight lock");
    // Double-check under the lock: the tune may have completed (and
    // published) between the probe above and acquiring the lock.
    if let Some(artifact) = shared.cache.peek(&key) {
        drop(inflight);
        Shared::bump(&shared.hits);
        let code = shared.code_for(&key, &artifact, want_code);
        return conn.respond_artifact(head.id, true, &artifact, code, false);
    }
    Shared::bump(&shared.misses);
    conn.inc_pending();
    let waiter = Waiter {
        conn: Arc::clone(conn),
        id: head.id,
        want_code,
    };
    use std::collections::hash_map::Entry;
    let enqueue = match inflight.entry(key) {
        Entry::Occupied(mut e) => {
            e.get_mut().push(waiter);
            Shared::bump(&shared.coalesced);
            false
        }
        Entry::Vacant(e) => {
            e.insert(vec![waiter]);
            true
        }
    };
    drop(inflight);
    if enqueue {
        // Only the flight's opener builds matrices, outside the lock.
        let req = head.to_request();
        shared
            .queue
            .lock()
            .expect("queue lock")
            .push_back(TuneJob { key, req });
        shared.queue_cv.notify_one();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::decode_tune_error;
    use hbar_matrix::SparseBoolMatrix;

    /// The arrival half of a linear barrier: rank 0 hears of everyone,
    /// nobody hears back.
    fn arrival_only(n: usize) -> BarrierSchedule {
        let m = SparseBoolMatrix::from_edges(n, (1..n).map(|i| (i, 0)));
        BarrierSchedule::from_arrival_matrices(n, vec![m])
    }

    #[test]
    fn artifact_of_a_barrier_builds() {
        let mut schedule = arrival_only(8);
        schedule.append(schedule.departure_reversed(0));
        let mut eval = CostEvaluator::new(CostParams::default());
        let artifact = TunedArtifact::build(&schedule, 1.0, &mut eval);
        assert!(artifact.code_c.get().is_none(), "no C before a client asks");
        let (code, emitted) = artifact.code();
        assert!(emitted && code.contains(SERVED_BARRIER_NAME));
        let programs = compile_schedule(&schedule).expect("compiles");
        assert_eq!(
            code,
            c_source(SERVED_BARRIER_NAME, &programs).expect("emits")
        );
        let (again, emitted) = artifact.code();
        assert!(!emitted, "the C is emitted once");
        assert!(std::ptr::eq(code, again));
    }

    #[test]
    fn non_barrier_is_answered_with_tune_err_and_never_cached() {
        let mut eval = CostEvaluator::new(CostParams::default());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            TunedArtifact::build(&arrival_only(8), 1.0, &mut eval)
        }));
        assert!(
            outcome.is_err(),
            "a non-barrier must not become an artifact"
        );

        // One waiter on a real socket pair, registered as the reader would.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        let shared = Shared::new(&CacheConfig::default(), addr);
        let key = CacheKey {
            cost_fp: 1,
            cfg_fp: 2,
        };
        let conn = Arc::new(Conn::new(server_side));
        conn.inc_pending();
        let waiter = Waiter {
            conn: Arc::clone(&conn),
            id: 7,
            want_code: false,
        };
        (shared.inflight.lock().expect("inflight lock")).insert(key, vec![waiter]);

        finish_flight(&shared, key, outcome);

        let mut payload = Vec::new();
        let tag = read_frame_into(&mut BufReader::new(client), &mut payload).expect("frame");
        assert_eq!(tag, FRAME_TUNE_ERR);
        let (id, reason) = decode_tune_error(&payload).expect("error payload");
        assert_eq!(id, 7);
        assert!(reason.contains("not a barrier"), "reason: {reason}");
        assert!(shared.cache.peek(&key).is_none());
        let stats = shared.stats();
        assert_eq!((stats.tunes, stats.errors, stats.cache_entries), (0, 1, 0));
        assert_eq!(*conn.pending.lock().expect("pending lock"), 0);
        assert!(shared.inflight.lock().expect("inflight lock").is_empty());
    }

    #[test]
    fn artifact_weight_charges_both_strings() {
        let artifact = TunedArtifact {
            predicted_cost: 1.0,
            schedule_json: String::from("{}"),
            code_c: OnceLock::new(),
        };
        let fixed = std::mem::size_of::<TunedArtifact>() + 64;
        assert_eq!(artifact.weight(), 2 + fixed, "no code, no charge");
        artifact
            .code_c
            .set(String::with_capacity(100))
            .expect("empty slot");
        assert_eq!(artifact.weight(), 2 + 100 + fixed);
    }
}
