//! TCP worker fleet for the decomposed profiling sweep.
//!
//! The sweep's execution layer is a [`crate::sweep::DescriptorExecutor`];
//! this module provides the distributed one. A **worker**
//! ([`serve_worker`], exposed as `hbar profile-worker`) is a plain
//! `std::net` accept loop: read a [`JobHeader`], then answer descriptor
//! batches until the driver disconnects (or a [`FRAME_SHUTDOWN`] ends the
//! process). The **driver** ([`FleetExecutor`]) shards each round's
//! descriptors into fixed-size batches behind a shared queue; one feeder
//! thread per worker address pulls batches, ships them, and pushes
//! responses. A worker that dies mid-batch gets its in-flight batch
//! requeued and the feeder reconnects with bounded retries; a feeder that
//! finds the queue empty stays for as long as a batch is in flight
//! elsewhere, since that batch may yet come back and need a worker. If
//! every worker is exhausted the driver either falls back to local
//! execution or reports [`SweepError::WorkersExhausted`].
//!
//! Determinism: descriptors carry their own sub-seeds and results are
//! merged by id, so the final profile is bit-identical no matter how
//! batches were sharded, which worker ran what, how often connections
//! dropped, or whether the fleet was used at all — the loopback
//! kill-and-retry integration test asserts exactly that.

use crate::noise::NoiseModel;
use crate::profiling::ProfilingConfig;
use crate::sweep::{DescriptorExecutor, LocalExecutor, PairSample, PairWorkDescriptor, SweepError};
use crate::wire::{
    decode_batch, decode_job, decode_results, encode_batch_into, encode_job, encode_results_into,
    read_frame_into, write_frame, JobHeader, FRAME_BATCH, FRAME_DRAIN, FRAME_JOB, FRAME_RESULT,
    FRAME_SHUTDOWN,
};
use hbar_topo::machine::MachineSpec;
use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Fault injection for the worker loop (tests only in practice, but kept
/// in the public API so integration tests outside the crate can use it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WorkerFault {
    /// Serve faithfully.
    #[default]
    None,
    /// Drop the connection abruptly after answering `after` batches, once;
    /// serve faithfully afterwards. Simulates a worker crash + restart.
    DropConnectionOnce {
        /// Batches answered before the drop.
        after: usize,
    },
    /// Exit the accept loop entirely after answering `after` batches.
    /// Simulates a worker that dies and never comes back.
    DieAfter {
        /// Batches answered before death.
        after: usize,
    },
}

/// Runs the worker serve loop on an already-bound listener until a
/// [`FRAME_SHUTDOWN`] arrives (or a [`WorkerFault::DieAfter`] fires).
/// Connections are served one at a time — the driver opens one connection
/// per worker, so per-worker concurrency buys nothing.
#[allow(clippy::needless_pass_by_value)] // owns the socket for the serve lifetime
pub fn serve_worker(listener: TcpListener, fault: WorkerFault) -> io::Result<()> {
    let mut answered = 0usize;
    let mut drop_armed = matches!(fault, WorkerFault::DropConnectionOnce { .. });
    for conn in listener.incoming() {
        let mut stream = match conn {
            Ok(s) => s,
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
            Err(e) => return Err(e),
        };
        stream.set_nodelay(true).ok();
        match serve_connection(&mut stream, &mut answered, fault, &mut drop_armed)? {
            ConnectionEnd::Continue => {}
            ConnectionEnd::Shutdown => return Ok(()),
        }
    }
    Ok(())
}

enum ConnectionEnd {
    Continue,
    Shutdown,
}

/// Serves one driver connection: job header first, then batches. One
/// read buffer and one result-encode buffer live for the whole
/// connection — frames of a steady-state session allocate nothing.
fn serve_connection(
    stream: &mut TcpStream,
    answered: &mut usize,
    fault: WorkerFault,
    drop_armed: &mut bool,
) -> io::Result<ConnectionEnd> {
    let mut payload = Vec::new();
    let mut resp_buf = Vec::new();
    let tag = match read_frame_into(stream, &mut payload) {
        Ok(t) => t,
        // Driver connected and went away (or a port scanner said hello):
        // not fatal to the worker.
        Err(e) if is_disconnect(&e) => return Ok(ConnectionEnd::Continue),
        Err(e) => return Err(e),
    };
    if tag == FRAME_SHUTDOWN {
        return Ok(ConnectionEnd::Shutdown);
    }
    if tag == FRAME_DRAIN {
        // Graceful no-op session: acknowledge and return to accept.
        write_frame(stream, FRAME_DRAIN, &[]).ok();
        return Ok(ConnectionEnd::Continue);
    }
    if tag != FRAME_JOB {
        // Protocol violation from the peer; drop the connection, keep
        // serving others.
        return Ok(ConnectionEnd::Continue);
    }
    // A job whose schedule cannot be measured is dropped the same way.
    let job = match decode_job(&payload) {
        Ok(j) if fits(&j.profiling) => j,
        _ => return Ok(ConnectionEnd::Continue),
    };
    let (machine, profiling) = (job.machine.clone(), job.profiling.clone());
    let mut executor = LocalExecutor::new(job.machine, job.noise, job.profiling);

    loop {
        let tag = match read_frame_into(stream, &mut payload) {
            Ok(t) => t,
            Err(e) if is_disconnect(&e) => return Ok(ConnectionEnd::Continue),
            Err(e) => return Err(e),
        };
        match tag {
            FRAME_SHUTDOWN => return Ok(ConnectionEnd::Shutdown),
            FRAME_DRAIN => {
                // Driver is done with this session: everything it sent
                // has been answered (the conversation is synchronous),
                // so acknowledge the drain and end the connection
                // cleanly instead of waiting for an abrupt EOF.
                write_frame(stream, FRAME_DRAIN, &[]).ok();
                return Ok(ConnectionEnd::Continue);
            }
            FRAME_BATCH => {
                // A batch that does not decode, or names cores the job's
                // machine cannot place, ends the connection, not the
                // worker.
                let descriptors = match decode_batch(&payload) {
                    Ok(d) if d.iter().all(|d| runs_on(&machine, &profiling, d)) => d,
                    _ => return Ok(ConnectionEnd::Continue),
                };
                let samples = executor
                    .execute_batch(&descriptors)
                    .expect("local execution is infallible");
                match fault {
                    WorkerFault::DropConnectionOnce { after }
                        if *drop_armed && *answered >= after =>
                    {
                        // Crash before answering: the driver must requeue
                        // this batch and reconnect.
                        *drop_armed = false;
                        return Ok(ConnectionEnd::Continue);
                    }
                    WorkerFault::DieAfter { after } if *answered >= after => {
                        return Ok(ConnectionEnd::Shutdown);
                    }
                    _ => {}
                }
                encode_results_into(&samples, &mut resp_buf);
                write_frame(stream, FRAME_RESULT, &resp_buf)?;
                *answered += 1;
            }
            _ => return Ok(ConnectionEnd::Continue),
        }
    }
}

/// The most messages a job's largest burst may send. A burst program
/// holds one instruction per message, so this sizes the largest program a
/// job makes the worker build: 2^16 sends of 24 bytes, 1.5 MiB.
const MAX_BURST_MESSAGES: usize = 1 << 16;

/// The most simulated runs plus transmission-free calls one descriptor may
/// ask for at its `rep_scale`, that is `(reps · |sizes| + burst_reps ·
/// max_messages + noop_calls) · rep_scale`. This sizes how long one
/// descriptor holds the worker; the default schedule asks for 1,357 at
/// `rep_scale` 1.
const MAX_DESCRIPTOR_WORK: usize = 1 << 24;

/// Whether `d` names two distinct cores of `machine` — the placement of
/// its two-rank bench asserts exactly that — and asks for at most
/// [`MAX_DESCRIPTOR_WORK`] runs and calls of `c`'s schedule.
fn runs_on(machine: &MachineSpec, c: &ProfilingConfig, d: &PairWorkDescriptor) -> bool {
    let cores = machine.total_cores();
    let work = (c.reps.checked_mul(c.sizes.len()))
        .zip(c.burst_reps.checked_mul(c.max_messages))
        .and_then(|(pings, bursts)| pings.checked_add(bursts)?.checked_add(c.noop_calls))
        .and_then(|runs| runs.checked_mul(d.rep_scale.max(1) as usize));
    d.core_a != d.core_b
        && (d.core_a as usize) < cores
        && (d.core_b as usize) < cores
        && work.is_some_and(|w| w <= MAX_DESCRIPTOR_WORK)
}

/// Whether `c`'s schedule runs and regresses: each benchmark asserts a
/// repetition or call, each line fit two distinct points, and no burst
/// exceeds [`MAX_BURST_MESSAGES`].
fn fits(c: &ProfilingConfig) -> bool {
    let two_sizes = c.sizes.iter().any(|&s| s as f64 != c.sizes[0] as f64);
    two_sizes
        && c.reps > 0
        && c.burst_reps > 0
        && c.noop_calls > 0
        && (2..=MAX_BURST_MESSAGES).contains(&c.max_messages)
}

fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

/// Sends a shutdown frame to a worker, ending its accept loop.
pub fn shutdown_worker(addr: impl ToSocketAddrs) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, FRAME_SHUTDOWN, &[])
}

/// Fleet tuning knobs.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Descriptors per shipped batch. Small batches retry cheaply after a
    /// crash; large batches amortize framing. 64 is comfortably both.
    pub batch_size: usize,
    /// Reconnect attempts per worker before writing it off.
    pub reconnect_attempts: u32,
    /// Pause between reconnect attempts.
    pub reconnect_backoff: Duration,
    /// Execute leftover batches locally when every worker is exhausted
    /// (`false` surfaces [`SweepError::WorkersExhausted`] instead).
    pub local_fallback: bool,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            batch_size: 64,
            reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(50),
            local_fallback: true,
        }
    }
}

/// The distributed [`DescriptorExecutor`]: shards each round's
/// descriptors across TCP workers, with retry-on-disconnect and a
/// deterministic id-keyed merge.
pub struct FleetExecutor {
    addrs: Vec<String>,
    job: JobHeader,
    opts: FleetOptions,
}

impl FleetExecutor {
    /// Fleet over `addrs` (each `host:port`) with an explicit job header.
    pub fn with_job(addrs: Vec<String>, job: JobHeader, opts: FleetOptions) -> Self {
        FleetExecutor { addrs, job, opts }
    }

    /// Convenience: builds the job header from its parts.
    pub fn for_sweep(
        addrs: Vec<String>,
        machine: MachineSpec,
        noise: NoiseModel,
        profiling: ProfilingConfig,
        opts: FleetOptions,
    ) -> Self {
        FleetExecutor::with_job(
            addrs,
            JobHeader {
                machine,
                noise,
                profiling,
            },
            opts,
        )
    }
}

type Batch = Vec<PairWorkDescriptor>;

/// The round's batches: those waiting for a feeder, and how many a feeder
/// has taken and neither finished nor given back. A batch in flight may
/// return to the queue, so only when both are zero is the round over.
#[derive(Default)]
struct BatchQueue {
    state: Mutex<QueueState>,
    /// Signalled when a batch comes back and when the round is over.
    changed: Condvar,
}

#[derive(Default)]
struct QueueState {
    waiting: VecDeque<Batch>,
    in_flight: usize,
}

impl BatchQueue {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().expect("no feeder panics with the queue")
    }

    /// The next batch, now in flight with the caller; `None` once nothing
    /// is waiting *and* nothing is in flight. Blocks in between: a batch
    /// in flight with a dying worker will need someone to run it.
    fn take(&self) -> Option<Batch> {
        let mut state = self.lock();
        loop {
            if let Some(batch) = state.waiting.pop_front() {
                state.in_flight += 1;
                return Some(batch);
            }
            if state.in_flight == 0 {
                return None;
            }
            state = (self.changed.wait(state)).expect("no feeder panics with the queue");
        }
    }

    /// A batch taken earlier has been answered.
    fn finished(&self) {
        let mut state = self.lock();
        state.in_flight -= 1;
        if state.in_flight == 0 && state.waiting.is_empty() {
            self.changed.notify_all();
        }
    }

    /// A batch taken earlier goes back to wait for another feeder.
    fn give_back(&self, batch: Batch) {
        let mut state = self.lock();
        state.in_flight -= 1;
        state.waiting.push_back(batch);
        self.changed.notify_one();
    }
}

impl DescriptorExecutor for FleetExecutor {
    fn execute_batch(
        &mut self,
        descriptors: &[PairWorkDescriptor],
    ) -> Result<Vec<PairSample>, SweepError> {
        if descriptors.is_empty() {
            return Ok(Vec::new());
        }
        let queue = BatchQueue::default();
        queue.lock().waiting = descriptors
            .chunks(self.opts.batch_size.max(1))
            .map(<[PairWorkDescriptor]>::to_vec)
            .collect();
        let results: Mutex<Vec<PairSample>> = Mutex::new(Vec::with_capacity(descriptors.len()));

        std::thread::scope(|scope| {
            for addr in &self.addrs {
                let queue = &queue;
                let results = &results;
                let job = &self.job;
                let opts = &self.opts;
                scope.spawn(move || {
                    let mut attempts_left = opts.reconnect_attempts;
                    loop {
                        match feed_worker(addr, job, queue, results) {
                            FeederEnd::QueueDrained => break,
                            FeederEnd::Lost(batch) => {
                                if let Some(batch) = batch {
                                    queue.give_back(batch);
                                }
                                if attempts_left == 0 {
                                    break;
                                }
                                attempts_left -= 1;
                                std::thread::sleep(opts.reconnect_backoff);
                            }
                        }
                    }
                });
            }
        });

        // Anything still queued means the whole fleet died.
        let leftovers = std::mem::take(&mut queue.lock().waiting);
        let mut merged = results.into_inner().expect("results lock");
        if !leftovers.is_empty() {
            if !self.opts.local_fallback {
                return Err(SweepError::WorkersExhausted {
                    remaining_batches: leftovers.len(),
                });
            }
            let mut local = LocalExecutor::new(
                self.job.machine.clone(),
                self.job.noise,
                self.job.profiling.clone(),
            );
            for batch in leftovers {
                merged.extend(local.execute_batch(&batch)?);
            }
        }
        // Id-keyed merge: the sweep validates ids; sorting here makes the
        // returned order independent of sharding and worker timing.
        merged.sort_by_key(|s| s.id);
        Ok(merged)
    }
}

enum FeederEnd {
    /// No work left anywhere; connection closed cleanly.
    QueueDrained,
    /// The connection (or connect attempt) died; `Some(batch)` was
    /// in flight and must be given back to the queue.
    Lost(Option<Batch>),
}

/// One connection's worth of feeding: connect, send the job header, then
/// pump batches until the round is over or the connection dies.
fn feed_worker(
    addr: &str,
    job: &JobHeader,
    queue: &BatchQueue,
    results: &Mutex<Vec<PairSample>>,
) -> FeederEnd {
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return FeederEnd::Lost(None),
    };
    stream.set_nodelay(true).ok();
    let header = match encode_job(job) {
        Ok(h) => h,
        Err(_) => return FeederEnd::Lost(None),
    };
    if write_frame(&mut stream, FRAME_JOB, &header).is_err() {
        return FeederEnd::Lost(None);
    }
    let mut batch_buf = Vec::new();
    let mut payload = Vec::new();
    loop {
        let Some(batch) = queue.take() else {
            // Graceful end-of-session: tell the worker we are done and
            // wait for its ack (best effort — a vanished worker is the
            // same as a drained one from the driver's point of view), so
            // it loops back to accept instead of seeing an abrupt EOF.
            if write_frame(&mut stream, FRAME_DRAIN, &[]).is_ok() {
                // Ack tag is FRAME_DRAIN on a well-behaved worker; any
                // other answer (or an error) changes nothing here.
                let _ = read_frame_into(&mut stream, &mut payload);
            }
            return FeederEnd::QueueDrained;
        };
        encode_batch_into(&batch, &mut batch_buf);
        if write_frame(&mut stream, FRAME_BATCH, &batch_buf).is_err() {
            return FeederEnd::Lost(Some(batch));
        }
        let samples = match read_frame_into(&mut stream, &mut payload) {
            Ok(FRAME_RESULT) => match decode_results(&payload) {
                Ok(s) => s,
                Err(_) => return FeederEnd::Lost(Some(batch)),
            },
            _ => return FeederEnd::Lost(Some(batch)),
        };
        // A confused worker answering the wrong ids poisons the merge;
        // treat it like a crash and requeue.
        if samples.len() != batch.len() || !batch.iter().zip(&samples).all(|(d, s)| d.id == s.id) {
            return FeederEnd::Lost(Some(batch));
        }
        results.lock().expect("results lock").extend(samples);
        queue.finished();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::WorkKind;

    #[test]
    fn fleet_options_defaults_are_sane() {
        let opts = FleetOptions::default();
        assert!(opts.batch_size > 0);
        assert!(opts.local_fallback);
    }

    #[test]
    fn empty_round_needs_no_workers() {
        let mut fleet = FleetExecutor::for_sweep(
            vec!["127.0.0.1:1".into()],
            hbar_topo::machine::MachineSpec::new(1, 1, 2),
            NoiseModel::none(),
            ProfilingConfig::fast(),
            FleetOptions::default(),
        );
        assert!(fleet.execute_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn unreachable_fleet_falls_back_locally() {
        // Port 1 is unassigned-and-refused on loopback; with fallback on,
        // the sweep must still complete (purely locally).
        let machine = hbar_topo::machine::MachineSpec::new(1, 1, 2);
        let noise = NoiseModel::none();
        let cfg = ProfilingConfig::fast();
        let mut fleet = FleetExecutor::for_sweep(
            vec!["127.0.0.1:1".into()],
            machine.clone(),
            noise,
            cfg.clone(),
            FleetOptions {
                reconnect_attempts: 0,
                ..FleetOptions::default()
            },
        );
        let descs = vec![PairWorkDescriptor {
            id: 0,
            kind: WorkKind::Pair,
            i: 0,
            j: 1,
            core_a: 0,
            core_b: 1,
            sub_seed: 7,
            rep_scale: 1,
        }];
        let via_fleet = fleet.execute_batch(&descs).unwrap();
        let mut local = LocalExecutor::new(machine, noise, cfg);
        let via_local = local.execute_batch(&descs).unwrap();
        assert_eq!(via_fleet.len(), 1);
        assert_eq!(via_fleet[0].o.to_bits(), via_local[0].o.to_bits());
        assert_eq!(via_fleet[0].l.to_bits(), via_local[0].l.to_bits());
    }

    #[test]
    fn unreachable_fleet_without_fallback_errors() {
        let mut fleet = FleetExecutor::for_sweep(
            vec!["127.0.0.1:1".into()],
            hbar_topo::machine::MachineSpec::new(1, 1, 2),
            NoiseModel::none(),
            ProfilingConfig::fast(),
            FleetOptions {
                reconnect_attempts: 0,
                local_fallback: false,
                ..FleetOptions::default()
            },
        );
        let descs = vec![PairWorkDescriptor {
            id: 0,
            kind: WorkKind::Diag,
            i: 0,
            j: 1,
            core_a: 0,
            core_b: 1,
            sub_seed: 7,
            rep_scale: 1,
        }];
        match fleet.execute_batch(&descs) {
            Err(SweepError::WorkersExhausted { remaining_batches }) => {
                assert_eq!(remaining_batches, 1)
            }
            other => panic!("expected WorkersExhausted, got {other:?}"),
        }
    }
}
