//! The discrete-event engine.
//!
//! ## Microscopic model
//!
//! A message from rank `i` to rank `j` of link class `c` passes through
//! serial resources in order, each charging a (possibly noise-perturbed)
//! occupancy from the machine's [`GroundTruth`]:
//!
//! 1. **Sender CPU** — `call_overhead + cpu_send(c)`; consecutive calls by
//!    the same process serialize here.
//! 2. **Node NIC TX** (inter-node only) — `nic_tx`; all traffic leaving a
//!    node serializes here, which is what makes many ranks per node
//!    sharing one gigabit NIC expensive (and what the measured `L`
//!    captures for inter-node pairs).
//! 3. **Wire** — `wire + bytes · ns_per_byte`, unlimited parallelism.
//! 4. **Node NIC RX** (inter-node only) — `nic_rx`.
//! 5. **Receiver CPU** — `cpu_recv(c)`, charged when the message matches a
//!    posted receive (at the later of availability and posting).
//!
//! A synchronous send's request completes at the *sender* when the
//! receiver has processed the message, plus one wire delay for the
//! acknowledgement — the `MPI_Issend` property the paper's benchmarks
//! lean on ("making local completion an indication that both processes
//! have been involved").
//!
//! `WaitAll` blocks until every request the process issued has completed;
//! `WaitRecvs` only until its receives have, leaving synchronous sends in
//! flight. A process that reaches the end of its program's last repetition
//! waits for all of its requests before it finishes.
//!
//! Receives match per `(src, dst)` pair in FIFO order. Posting any call
//! costs `call_overhead` on the caller's CPU. `Delay` models computation
//! without occupying the CPU resource (message progress continues, as
//! with an MPI progress thread).
//!
//! ## Reuse lifecycle
//!
//! An `Engine` is built **once** per placement ([`Engine::new`] takes the
//! core list and ground truth) and then runs arbitrarily many program
//! sets. It borrows programs, never stores them, and interprets
//! instructions **by value** (`Instr` is `Copy`; mark labels are interned
//! ids). A program is a body run [`Program::reps`] times: the interpreter
//! keeps a `pc` into the body and an iteration counter, so a barrier
//! repeated 1000 times is read from one barrier's instructions. A run has
//! two preparations with different lifetimes:
//!
//! * [`bind`] — once per **program set**: validate every body instruction
//!   against the placement, intern the channels it names, count each
//!   channel's messages per body and lay out the slot regions for all
//!   repetitions (next section). This reads every body instruction once
//!   and hashes every new channel.
//! * `rewind` — once per **run**: interpreter states (`pc`, iteration,
//!   request counts), channel heads, resource clocks, the event queue,
//!   `seq` and the event count go back to zero. It touches nothing `bind`
//!   computed.
//!
//! Every run is bind → rewind → event loop. [`run`](Engine::run) does all
//! three, so a caller that knows nothing else is always right.
//! [`run_bound`](Engine::run_bound) skips `bind`, for the caller that runs
//! one unmodified program set again and again — a sample point of the
//! §IV-A profile is the median of 25–100 runs of one program pair. Skipping
//! is sound only if the slice passed is the one last bound, unchanged: the
//! engine holds each instruction's channel, not the instruction, so it can
//! check the slice's shape — body lengths and repetition counts — (it
//! does, in debug builds) but not its contents. Inside this crate only
//! `PairBench` skips, and it owns both the world and the program buffers,
//! rebuilding and re-binding at the top of every sample point;
//! `SimWorld::run` binds on every call.
//!
//! Either way results are bit-identical to a freshly constructed engine:
//! event ordering depends only on `(time, seq)` and `seq` restarts at zero
//! each run, so the deterministic noise stream is consumed in the same
//! order.
//!
//! ## Event accounting
//!
//! Three things happen in event order: a process resumes, a message
//! arrives at its receiver's node, and a request completes. Only the first
//! two run code that draws noise or reserves a resource; a completion only
//! decrements its process's request count, and matters only when that
//! drains a blocked `WaitRecvs`, `WaitAll` or program end. So a completion
//! takes its sequence number and is counted when the match schedules it,
//! but it enters the queue only as the **wake-up** of a process it drains:
//! under the key `(time, seq)` of the last completion the wait covers,
//! pushed when that completion is scheduled, or when the process blocks if
//! every covered request has matched by then. A completion whose key is at
//! most the current event's has fired, so the wake-up counts as fired
//! itself. Since every completion still takes its sequence number, every
//! queued event keeps its key, the queue pops resumes and arrivals in the
//! same order, and `events` counts every resume, arrival and completion,
//! queued or not.
//!
//! ## Channels and memory bound
//!
//! Nothing in the engine is sized by the number of rank *pairs*. Link
//! charges take one value per [`LinkClass`], so they live in a three-entry
//! table; the class of a pair comes from the per-rank core list. Matching
//! state exists only for the `(dst, src)` **channels** the programs name:
//! [`bind`], which walks every body instruction to validate it anyway,
//! gives each distinct channel a dense id (hashing happens there, once per
//! channel and naming rank, never in the event loop), writes the id of
//! every instruction into a side table parallel to the bodies, and counts
//! the channel's receives and sends per body. In the event loop an `Irecv` or
//! `Issend` reads its channel id from the side table, and an arrival event
//! carries the id in its payload, so reaching a channel is an array load.
//!
//! A channel is one head-indexed FIFO over its own region of a shared slot
//! arena. Synchronous FIFO matching never has posted receives and arrived
//! messages pending on one channel at once (whichever comes second matches
//! the first instead of queueing), so one queue with a flag for what it
//! holds suffices. Head and tail only advance; a match is one push and one
//! pop and an entry left unmatched is one push, so over a whole run a
//! channel whose receiver's body posts `r` receives over `k_r` repetitions
//! and whose sender's issues `s` sends over `k_s` pushes at most
//! `max(r · k_r, s · k_s)` entries, which is the size of its region.
//!
//! Memory is therefore `O(P)` at construction (interpreter states, resource
//! clocks, core list) plus, per binding, a 32-byte record and a hash-table
//! entry per channel, 4 bytes per body instruction and 8 bytes per message
//! of the whole run — at P = 16384 one dissemination barrier (229 k
//! channels) needs about 20 MB where one 128-byte entry per ordered pair
//! would need 34 GB, and each further repetition adds only its messages'
//! slots. All of it is retained between runs, so the hot loop performs no
//! heap allocation after warm-up.
//!
//! [`bind`]: Engine::bind

use crate::noise::{NoiseModel, NoiseState};
use crate::program::{Instr, LabelId, Program};
use crate::trace::{Trace, TraceEvent};
use crate::Time;
use hbar_topo::machine::{CoreId, GroundTruth, LinkClass};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A serial resource reserved in event-time order.
#[derive(Clone, Copy, Debug, Default)]
struct Resource {
    free_at: Time,
}

impl Resource {
    /// Reserves the resource for `dur` starting no earlier than `at`;
    /// returns the completion time.
    fn acquire(&mut self, at: Time, dur: Time) -> Time {
        let start = self.free_at.max(at);
        self.free_at = start + dur;
        self.free_at
    }
}

/// Event tags, packed into the top bits of an event payload. A process
/// resumes after a `Delay`, at the start, and when a completion drains its
/// wait (see the module header).
const TAG_RESUME: u32 = 0;
const TAG_ARRIVE: u32 = 1;

/// Width of the argument field of a packed event payload: a rank, or for
/// an arrival a channel id (the tag shares the 32-bit word).
const ARG_BITS: u32 = 30;
const ARG_MASK: u32 = (1 << ARG_BITS) - 1;

/// Packs `(tag, arg)` into an event payload word.
#[inline]
fn payload(tag: u32, arg: usize) -> u32 {
    debug_assert!(arg <= ARG_MASK as usize);
    (tag << ARG_BITS) | arg as u32
}

/// A popped queue entry. `key` carries the tie-breaking sequence number
/// in its high half and the packed `(tag, arg)` payload in its low
/// half; in the queue both words live in one `u128` (`time` on top) whose
/// integer order is exactly the engine's `(time, seq)` event order, since
/// sequence numbers are unique. With the payload bits zero, the same
/// `u128` is an event's key: what a completion records in place of an
/// event.
#[derive(Clone, Copy, Debug)]
struct Event {
    time: Time,
    key: u64,
}

impl Event {
    #[inline]
    fn tag(&self) -> u32 {
        self.key as u32 >> ARG_BITS
    }

    #[inline]
    fn arg(&self) -> usize {
        (self.key as u32 & ARG_MASK) as usize
    }
}

/// Precomputed charges of one link class: one small copy resolves what
/// would otherwise take a `GroundTruth` match per instruction.
#[derive(Clone, Copy, Debug)]
struct ClassCost {
    inter_node: bool,
    /// `call_overhead + cpu_send` — the sender CPU injection occupancy.
    inject_ns: Time,
    cpu_recv_ns: Time,
    nic_tx_ns: Time,
    nic_rx_ns: Time,
    wire_ns: Time,
    ns_per_byte: f64,
}

/// What a blocked process waits to drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Blocked {
    /// Running, finished, or with its wake-up queued.
    #[default]
    No,
    /// In `WaitRecvs` with a receive unmatched: its wake-up is queued when
    /// the last one matches.
    OnRecvs,
    /// In `WaitAll`, or at the end of its program, with a request
    /// unmatched: its wake-up is queued when the last one matches.
    OnAll,
}

/// Per-process interpreter state, reused across runs.
#[derive(Clone, Debug, Default)]
struct ProcState {
    /// Next instruction of the body.
    pc: usize,
    /// Repetition of the body being run, from 0.
    iteration: usize,
    /// The program's repetition count; set by `bind`, kept by `rewind`.
    reps: usize,
    /// Index of this program's first instruction in the engine's
    /// instruction → channel side table; set by `bind`, kept by `rewind`.
    chan_base: usize,
    /// Sends issued and not yet matched: their completions have no key
    /// yet.
    unmatched_sends: usize,
    /// Receives posted and not yet matched.
    unmatched_recvs: usize,
    /// The largest completion key (see [`Event`]) among the receives
    /// matched so far; 0 before the first.
    last_recv_done: u128,
    /// The same for the sends.
    last_send_done: u128,
    waiting: Blocked,
    done: bool,
    finish: Option<Time>,
    /// Recorded `Mark` timestamps as interned label ids; resolved to
    /// strings only when building the [`EngineResult`].
    marks: Vec<(LabelId, Time)>,
}

impl ProcState {
    fn rewind(&mut self) {
        self.pc = 0;
        self.iteration = 0;
        self.unmatched_sends = 0;
        self.unmatched_recvs = 0;
        self.last_recv_done = 0;
        self.last_send_done = 0;
        self.waiting = Blocked::No;
        self.done = false;
        self.finish = None;
        self.marks.clear();
    }

    /// The key of the completion that drains `wait`: the last one the wait
    /// covers, once every covered request has matched; `None` while one
    /// has not.
    fn drain_key(&self, wait: Blocked) -> Option<u128> {
        match wait {
            Blocked::No => None,
            Blocked::OnRecvs => (self.unmatched_recvs == 0).then_some(self.last_recv_done),
            Blocked::OnAll => (self.unmatched_recvs == 0 && self.unmatched_sends == 0)
                .then_some(self.last_recv_done.max(self.last_send_done)),
        }
    }
}

/// What a channel's queue currently holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    /// Post times of receives no message has matched yet.
    Posted,
    /// Availability times of messages no receive has matched yet.
    Arrived,
}

/// Matching state of one `(dst, src)` channel: a head-indexed FIFO over
/// `slots[base + head .. base + tail]` of the engine's slot arena. Pops
/// advance `head` instead of shifting; see the module header for why one
/// queue serves both kinds of entry and why the region cannot overflow.
#[derive(Clone, Copy, Debug)]
struct Channel {
    src: u32,
    dst: u32,
    /// The pair's `LinkClass as u8`: index into the engine's charge table.
    class: u8,
    /// Meaningful while the queue is non-empty.
    holds: Pending,
    base: u32,
    head: u32,
    tail: u32,
    /// `Irecv`s and `Issend`s naming this channel in one body of the
    /// receiver's and the sender's program, counted by `bind` to size the
    /// region.
    recvs: u32,
    sends: u32,
}

/// Hasher for channel keys. A key is one `u64` made of two validated rank
/// numbers — not outside input — so the table needs mixing, not SipHash's
/// resistance to crafted collisions. The rotation moves the product's
/// well-mixed high bits into the low bits the table indexes by: `dst * p`
/// alone leaves those zero for every channel into rank 0.
#[derive(Default)]
struct ChannelKeyHasher(u64);

impl Hasher for ChannelKeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("channel keys are hashed through write_u64");
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Directions of `Engine::peer_memo`.
const SEND: usize = 0;
const RECV: usize = 1;

/// Side-table entry of an instruction that names no channel.
const NO_CHANNEL: u32 = u32::MAX;

/// Error returned when the simulation cannot complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimDeadlock {
    /// Processes that never finished, with their program counters and
    /// outstanding request counts. A program counter counts instructions
    /// as if the body were written out once per repetition: iteration ×
    /// body length + position in the body.
    pub stuck: Vec<(usize, usize, usize)>,
}

impl std::fmt::Display for SimDeadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation deadlock; stuck (proc, pc, outstanding): {:?}",
            self.stuck
        )
    }
}

impl std::error::Error for SimDeadlock {}

/// Outcome of one engine run.
#[derive(Clone, Debug)]
pub struct EngineResult {
    /// Per-process completion time of its entire program.
    pub finish: Vec<Time>,
    /// Per-process recorded `Mark` timestamps.
    pub marks: Vec<Vec<(String, Time)>>,
    /// Total events processed (a proxy for simulation effort).
    pub events: u64,
    /// Per-message event trace, if recording was enabled.
    pub trace: Option<Trace>,
}

/// The reusable event-driven interpreter: per-rank state sized once for a
/// placement, per-channel state sized by each program set;
/// [`run`](Engine::run) borrows program slices.
pub struct Engine {
    cores: Vec<CoreId>,
    gt: GroundTruth,
    procs: Vec<ProcState>,
    cpu: Vec<Resource>,
    nic_tx: Vec<Resource>,
    nic_rx: Vec<Resource>,
    /// Pending events as packed keys (see [`Event`]), smallest first. Any
    /// exact min-queue pops them in the same `(time, seq)` order, so the
    /// choice of queue moves no result; DESIGN.md §9 has the measurements
    /// that chose this one.
    queue: BinaryHeap<Reverse<u128>>,
    /// Link charges, indexed by `LinkClass as usize`.
    charges: [ClassCost; 3],
    /// The channels the current program set names, in order of first
    /// mention.
    channels: Vec<Channel>,
    /// `(dst, src)` → index into `channels`; consulted by `bind` only.
    channel_ids: HashMap<u64, u32, BuildHasherDefault<ChannelKeyHasher>>,
    /// `[2 * peer + dir]` → `(rank + 1, id)`: the channel `rank` last
    /// resolved for that peer and direction during `bind` (0 = none).
    peer_memo: Vec<(u32, u32)>,
    /// Channel of every instruction of every body, bodies concatenated in
    /// rank order ([`NO_CHANNEL`] for non-message instructions).
    instr_channel: Vec<u32>,
    /// Backing storage of every channel's queue.
    slots: Vec<Time>,
    /// Node of each rank's core (for the shared NIC resources).
    node: Vec<u32>,
    /// Cached `GroundTruth::call_overhead_ns`.
    overhead_ns: Time,
    seq: u32,
    /// Key of the event being handled (see [`Event`]): nothing is
    /// scheduled before it, and every completion up to it has fired.
    current: u128,
    noise: NoiseState,
    events: u64,
    trace: Option<Trace>,
}

impl Engine {
    /// Builds an engine for processes pinned to `cores`, sizing the
    /// per-rank state for `cores.len()` ranks. The engine holds no
    /// programs; [`run`](Self::run) borrows them per run.
    ///
    /// # Panics
    /// Panics if the rank count exceeds the packed-event argument field
    /// (2^30 ranks — far beyond the paper's scale).
    pub fn new(cores: Vec<CoreId>, gt: GroundTruth) -> Self {
        let p = cores.len();
        assert!(
            p <= ARG_MASK as usize + 1,
            "engine supports at most {} ranks",
            ARG_MASK as usize + 1
        );
        let max_node = cores.iter().map(|c| c.node).max().unwrap_or(0);
        assert!(
            LinkClass::ALL
                .iter()
                .enumerate()
                .all(|(i, &c)| c as usize == i),
            "channels index the charge table by class discriminant"
        );
        let charges = LinkClass::ALL.map(|class| {
            let lc = gt.link(class);
            ClassCost {
                inter_node: class == LinkClass::InterNode,
                inject_ns: gt.call_overhead_ns + lc.cpu_send_ns,
                cpu_recv_ns: lc.cpu_recv_ns,
                nic_tx_ns: lc.nic_tx_ns,
                nic_rx_ns: lc.nic_rx_ns,
                wire_ns: lc.wire_ns,
                ns_per_byte: lc.ns_per_byte,
            }
        });
        Engine {
            procs: vec![ProcState::default(); p],
            cpu: vec![Resource::default(); p],
            nic_tx: vec![Resource::default(); max_node + 1],
            nic_rx: vec![Resource::default(); max_node + 1],
            queue: BinaryHeap::new(),
            charges,
            channels: Vec::new(),
            channel_ids: HashMap::default(),
            peer_memo: vec![(0, 0); 2 * p],
            instr_channel: Vec::new(),
            slots: Vec::new(),
            node: cores.iter().map(|c| c.node as u32).collect(),
            overhead_ns: gt.call_overhead_ns,
            seq: 0,
            current: 0,
            noise: NoiseState::new(NoiseModel::none(), 0),
            events: 0,
            trace: None,
            cores,
            gt,
        }
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.procs.len()
    }

    /// The physical placement of each rank.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// The ground truth this engine charges.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.gt
    }

    /// Enables per-message trace recording for the next run only (the
    /// run's result carries the trace out).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::default());
    }

    /// Binds a program set: validates `programs` against the placement and
    /// rebuilds the channel table for them — every `(dst, src)` a body
    /// instruction names gets a dense id, recorded per instruction, and a
    /// queue region large enough for every repetition of a whole run.
    /// Whatever the previous binding left behind is dropped with the old
    /// table. All storage retains its capacity, so re-binding allocates
    /// nothing once warm.
    ///
    /// # Panics
    /// Panics if the program count differs from the rank count, if any
    /// instruction references an out-of-range rank, if a rank messages
    /// itself, if a repetition count is 0, or if a channel's messages over
    /// all repetitions overflow the slot arena.
    pub fn bind(&mut self, programs: &[Program]) {
        let p = self.p();
        assert_eq!(programs.len(), p, "one program per rank required");
        self.channels.clear();
        self.channel_ids.clear();
        self.peer_memo.fill((0, 0));
        self.instr_channel.clear();
        for (r, prog) in programs.iter().enumerate() {
            // `set_reps` refuses 0, but a deserialized program skips it.
            assert!(prog.reps() > 0, "rank {r} runs its body at least once");
            self.procs[r].chan_base = self.instr_channel.len();
            self.procs[r].reps = prog.reps();
            for ins in &prog.instrs {
                let id = match *ins {
                    Instr::Issend { dst, .. } => {
                        assert!(dst < p, "rank {r} sends to out-of-range {dst}");
                        assert_ne!(dst, r, "rank {r} sends to itself");
                        let id = self.channel_id(r, dst, SEND);
                        self.channels[id as usize].sends += 1;
                        id
                    }
                    Instr::Irecv { src } => {
                        assert!(src < p, "rank {r} receives from out-of-range {src}");
                        assert_ne!(src, r, "rank {r} receives from itself");
                        let id = self.channel_id(r, src, RECV);
                        self.channels[id as usize].recvs += 1;
                        id
                    }
                    _ => NO_CHANNEL,
                };
                self.instr_channel.push(id);
            }
        }
        // Per run: the per-body count times the naming rank's repetitions.
        let per_run = |count: u32, reps: usize| {
            u32::try_from(reps)
                .ok()
                .and_then(|reps| count.checked_mul(reps))
                .expect("message count fits the slot arena")
        };
        let mut slots = 0u32;
        for ch in &mut self.channels {
            ch.base = slots;
            let recvs = per_run(ch.recvs, self.procs[ch.dst as usize].reps);
            let sends = per_run(ch.sends, self.procs[ch.src as usize].reps);
            slots = slots
                .checked_add(recvs.max(sends))
                .expect("message count fits the slot arena");
        }
        // Entries are written before they are read, so stale ones may stay.
        self.slots.resize(slots as usize, 0);
    }

    /// Returns the bound program set to its initial state: interpreter
    /// states, channel queues, resource clocks, event queue and counters —
    /// everything a run writes and nothing `bind` computed.
    fn rewind(&mut self) {
        for pr in &mut self.procs {
            pr.rewind();
        }
        for ch in &mut self.channels {
            ch.head = 0;
            ch.tail = 0;
        }
        for r in self
            .cpu
            .iter_mut()
            .chain(&mut self.nic_tx)
            .chain(&mut self.nic_rx)
        {
            r.free_at = 0;
        }
        self.queue.clear();
        self.seq = 0;
        self.current = 0;
        self.events = 0;
    }

    /// The id of the channel `rank` names by sending to (`dir` =
    /// [`SEND`]) or receiving from ([`RECV`]) `peer`, created empty on
    /// first mention. Repetitions and bursts make a rank name the same
    /// channel many times over; `peer_memo` answers those without hashing.
    #[inline]
    fn channel_id(&mut self, rank: usize, peer: usize, dir: usize) -> u32 {
        let stamp = rank as u32 + 1;
        let memo = self.peer_memo[2 * peer + dir];
        if memo.0 == stamp {
            return memo.1;
        }
        let (dst, src) = if dir == RECV {
            (rank, peer)
        } else {
            (peer, rank)
        };
        let key = (dst * self.procs.len() + src) as u64;
        let next = self.channels.len();
        let id = *self.channel_ids.entry(key).or_insert(next as u32);
        if id as usize == next {
            assert!(next <= ARG_MASK as usize, "too many channels");
            self.channels.push(Channel {
                src: src as u32,
                dst: dst as u32,
                class: self.cores[dst].link_class(&self.cores[src]) as u8,
                holds: Pending::Posted,
                base: 0,
                head: 0,
                tail: 0,
                recvs: 0,
                sends: 0,
            });
        }
        self.peer_memo[2 * peer + dir] = (stamp, id);
        id
    }

    /// Pops the channel's oldest entry if it holds entries of `kind`.
    #[inline]
    fn take(&mut self, channel: usize, kind: Pending) -> Option<Time> {
        let ch = &mut self.channels[channel];
        if ch.head == ch.tail || ch.holds != kind {
            return None;
        }
        let t = self.slots[(ch.base + ch.head) as usize];
        ch.head += 1;
        Some(t)
    }

    /// Queues an entry of `kind` on a channel holding none of the other
    /// kind.
    #[inline]
    fn put(&mut self, channel: usize, kind: Pending, t: Time) {
        let ch = &mut self.channels[channel];
        debug_assert!(ch.head == ch.tail || ch.holds == kind);
        ch.holds = kind;
        self.slots[(ch.base + ch.tail) as usize] = t;
        ch.tail += 1;
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.events.push(event);
        }
    }

    /// Takes the next sequence number for an event at `time`, counts the
    /// event, and returns its key (see [`Event`]).
    #[inline]
    fn next_key(&mut self, time: Time) -> u128 {
        debug_assert!(
            time >= (self.current >> 64) as Time,
            "event scheduled into the past"
        );
        self.seq = self.seq.checked_add(1).expect("event sequence overflow");
        self.events += 1;
        (time as u128) << 64 | (self.seq as u128) << 32
    }

    #[inline]
    fn schedule(&mut self, time: Time, payload: u32) {
        let key = self.next_key(time);
        self.queue.push(Reverse(key | payload as u128));
    }

    /// Queues `proc`'s wake-up under the key of the completion that drains
    /// its wait; that completion was counted when it was scheduled.
    #[inline]
    fn wake_at(&mut self, proc: usize, key: u128) {
        debug_assert!(key > self.current, "wake-up for a fired completion");
        self.queue
            .push(Reverse(key | payload(TAG_RESUME, proc) as u128));
    }

    /// Queues `proc`'s wake-up if a completion just drained its wait.
    #[inline]
    fn wake_if_drained(&mut self, proc: usize) {
        let pr = &mut self.procs[proc];
        if let Some(key) = pr.drain_key(pr.waiting) {
            pr.waiting = Blocked::No;
            self.wake_at(proc, key);
        }
    }

    /// Enters `wait` for `proc`; false if every request it covers has
    /// already completed, so the process runs on.
    #[inline]
    fn block(&mut self, proc: usize, wait: Blocked) -> bool {
        match self.procs[proc].drain_key(wait) {
            Some(key) if key <= self.current => false,
            Some(key) => {
                self.wake_at(proc, key);
                true
            }
            None => {
                self.procs[proc].waiting = wait;
                true
            }
        }
    }

    /// Binds `programs` and runs them to completion with the given per-run
    /// noise state. Results are bit-identical to a freshly constructed
    /// engine fed the same programs and noise.
    pub fn run(
        &mut self,
        programs: &[Program],
        noise: NoiseState,
    ) -> Result<EngineResult, SimDeadlock> {
        self.bind(programs);
        self.run_bound(programs, noise)
    }

    /// Runs the program set last passed to [`bind`](Self::bind) once more,
    /// from a rewound state. `programs` must be that same, unmodified set:
    /// the engine keeps the channel of every instruction, not the
    /// instructions.
    pub fn run_bound(
        &mut self,
        programs: &[Program],
        noise: NoiseState,
    ) -> Result<EngineResult, SimDeadlock> {
        let outcome = self.execute(programs, noise);
        // Tracing lasts one run, however that run ends.
        let trace = self.trace.take();
        outcome?;
        Ok(EngineResult {
            finish: self
                .procs
                .iter()
                .map(|pr| pr.finish.expect("done implies finish"))
                .collect(),
            marks: self
                .procs
                .iter()
                .enumerate()
                .map(|(r, pr)| {
                    pr.marks
                        .iter()
                        .map(|&(id, t)| (programs[r].label(id).to_string(), t))
                        .collect()
                })
                .collect(),
            events: self.events,
            trace,
        })
    }

    /// Rank `r`'s completion time after a successful [`execute`].
    ///
    /// [`execute`]: Self::execute
    pub(crate) fn finish_of(&self, r: usize) -> Time {
        self.procs[r].finish.expect("execute completed this rank")
    }

    /// Rank `r`'s first recorded `Mark` time after a successful
    /// [`execute`](Self::execute).
    pub(crate) fn first_mark_of(&self, r: usize) -> Time {
        self.procs[r].marks.first().expect("rank recorded a mark").1
    }

    /// Whether `programs` has the shape of the bound set: one program per
    /// rank, each body as long as its stretch of the side table and
    /// repeated as often as bound.
    fn is_bound_to(&self, programs: &[Program]) -> bool {
        let mut base = 0;
        programs.len() == self.p()
            && programs.iter().zip(&self.procs).all(|(prog, pr)| {
                let starts_here = pr.chan_base == base && pr.reps == prog.reps();
                base += prog.instrs.len();
                starts_here
            })
            && base == self.instr_channel.len()
    }

    /// Rewinds and runs the bound program set, without result assembly:
    /// benchmark drivers that only need one rank's finish time call this to
    /// keep the per-run path free of even the result-vector allocations.
    pub(crate) fn execute(
        &mut self,
        programs: &[Program],
        noise: NoiseState,
    ) -> Result<(), SimDeadlock> {
        debug_assert!(
            self.is_bound_to(programs),
            "programs differ from the bound set"
        );
        self.rewind();
        self.noise = noise;
        for r in 0..self.p() {
            self.schedule(0, payload(TAG_RESUME, r));
        }
        while let Some(Reverse(v)) = self.queue.pop() {
            let ev = Event {
                time: (v >> 64) as Time,
                key: v as u64,
            };
            self.current = v & !(u32::MAX as u128);
            match ev.tag() {
                TAG_RESUME => self.run_program(programs, ev.arg(), ev.time),
                TAG_ARRIVE => {
                    let channel = ev.arg();
                    let ch = self.channels[channel];
                    let (src, dst) = (ch.src as usize, ch.dst as usize);
                    let c = self.charges[ch.class as usize];
                    // NIC RX serialization for inter-node traffic.
                    let available = if c.inter_node {
                        let dur = self.noise.sample(c.nic_rx_ns);
                        self.nic_rx[self.node[dst] as usize].acquire(ev.time, dur)
                    } else {
                        ev.time
                    };
                    self.record(TraceEvent::Delivered {
                        time: available,
                        src,
                        dst,
                    });
                    if let Some(post_time) = self.take(channel, Pending::Posted) {
                        self.complete_match(src, dst, c, available.max(post_time));
                    } else {
                        self.put(channel, Pending::Arrived, available);
                    }
                }
                _ => unreachable!("unknown event tag"),
            }
        }
        let stuck: Vec<(usize, usize, usize)> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, pr)| !pr.done)
            .map(|(r, pr)| {
                let pc = pr.iteration * programs[r].instrs.len() + pr.pc;
                (r, pc, pr.unmatched_sends + pr.unmatched_recvs)
            })
            .collect();
        if !stuck.is_empty() {
            return Err(SimDeadlock { stuck });
        }
        Ok(())
    }

    /// Matches a message `src → dst`: charges the receiver CPU, completes
    /// the receive, and acknowledges the synchronous sender. Each
    /// completion gets its key; it is queued only as the wake-up of a
    /// process it drains.
    #[inline]
    fn complete_match(&mut self, src: usize, dst: usize, c: ClassCost, at: Time) {
        let dur = self.noise.sample(c.cpu_recv_ns);
        let done = self.cpu[dst].acquire(at, dur);
        let recv_key = self.next_key(done);
        self.record(TraceEvent::RecvCompleted {
            time: done,
            src,
            dst,
        });
        // Acknowledgement back to the synchronous sender: one wire delay.
        let ack = self.noise.sample(c.wire_ns);
        let send_key = self.next_key(done + ack);
        self.record(TraceEvent::SendCompleted {
            time: done + ack,
            src,
            dst,
        });
        let receiver = &mut self.procs[dst];
        receiver.unmatched_recvs -= 1;
        receiver.last_recv_done = receiver.last_recv_done.max(recv_key);
        self.wake_if_drained(dst);
        let sender = &mut self.procs[src];
        sender.unmatched_sends -= 1;
        sender.last_send_done = sender.last_send_done.max(send_key);
        self.wake_if_drained(src);
    }

    /// Interprets `proc`'s program starting at time `now` until it blocks
    /// or finishes. Instructions are read by value (`Instr: Copy`) — the
    /// loop performs no heap allocation.
    fn run_program(&mut self, programs: &[Program], proc: usize, now: Time) {
        let mut now = now;
        let instrs = &programs[proc].instrs;
        loop {
            let pr = &mut self.procs[proc];
            if pr.done {
                return;
            }
            if pr.pc >= instrs.len() {
                if pr.iteration + 1 < pr.reps && !instrs.is_empty() {
                    pr.iteration += 1;
                    pr.pc = 0;
                    continue;
                }
                // Implicit trailing WaitAll: finish when requests drain.
                if !self.block(proc, Blocked::OnAll) {
                    let pr = &mut self.procs[proc];
                    pr.done = true;
                    pr.finish = Some(now);
                }
                return;
            }
            match instrs[pr.pc] {
                Instr::Delay { ns } => {
                    self.procs[proc].pc += 1;
                    self.schedule(now + ns, payload(TAG_RESUME, proc));
                    return;
                }
                Instr::Mark { label } => {
                    self.procs[proc].marks.push((label, now));
                    self.procs[proc].pc += 1;
                }
                Instr::NoOpCall => {
                    let dur = self.noise.sample(self.overhead_ns);
                    now = self.cpu[proc].acquire(now, dur);
                    self.procs[proc].pc += 1;
                }
                Instr::WaitAll => {
                    self.procs[proc].pc += 1; // resume past the wait
                    if self.block(proc, Blocked::OnAll) {
                        return;
                    }
                }
                Instr::WaitRecvs => {
                    self.procs[proc].pc += 1;
                    if self.block(proc, Blocked::OnRecvs) {
                        return;
                    }
                }
                Instr::Irecv { src } => {
                    let channel = self.instr_channel[pr.chan_base + pr.pc] as usize;
                    let dur = self.noise.sample(self.overhead_ns);
                    now = self.cpu[proc].acquire(now, dur);
                    let pr = &mut self.procs[proc];
                    pr.pc += 1;
                    pr.unmatched_recvs += 1;
                    if let Some(available) = self.take(channel, Pending::Arrived) {
                        let c = self.charges[self.channels[channel].class as usize];
                        self.complete_match(src, proc, c, available.max(now));
                    } else {
                        self.put(channel, Pending::Posted, now);
                    }
                }
                Instr::Issend { dst, bytes } => {
                    let channel = self.instr_channel[pr.chan_base + pr.pc] as usize;
                    let c = self.charges[self.channels[channel].class as usize];
                    let inject = self.noise.sample(c.inject_ns);
                    now = self.cpu[proc].acquire(now, inject);
                    self.record(TraceEvent::SendInjected {
                        time: now,
                        src: proc,
                        dst,
                    });
                    self.procs[proc].pc += 1;
                    self.procs[proc].unmatched_sends += 1;
                    let after_tx = if c.inter_node {
                        let dur = self.noise.sample(c.nic_tx_ns);
                        self.nic_tx[self.node[proc] as usize].acquire(now, dur)
                    } else {
                        now
                    };
                    let wire_ns = if bytes == 0 {
                        c.wire_ns // skip the f64 bandwidth term for signals
                    } else {
                        c.wire_ns + (bytes as f64 * c.ns_per_byte).round() as Time
                    };
                    let wire = self.noise.sample(wire_ns);
                    self.schedule(after_tx + wire, payload(TAG_ARRIVE, channel));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use crate::program::Program;
    use hbar_topo::machine::MachineSpec;

    fn engine_for(machine: &MachineSpec, flat_cores: &[usize]) -> Engine {
        let cores: Vec<CoreId> = flat_cores.iter().map(|&c| machine.core(c)).collect();
        Engine::new(cores, machine.ground_truth.clone())
    }

    fn exact() -> NoiseState {
        NoiseState::new(NoiseModel::none(), 0)
    }

    #[test]
    fn empty_programs_finish_at_zero() {
        let m = MachineSpec::new(1, 1, 2);
        let res = engine_for(&m, &[0, 1])
            .run(&[Program::new(), Program::new()], exact())
            .unwrap();
        assert_eq!(res.finish, vec![0, 0]);
    }

    #[test]
    fn single_signal_same_socket_cost_breakdown() {
        let m = MachineSpec::new(1, 1, 2);
        let gt = &m.ground_truth;
        let p0 = Program::new().issend(1).wait_all();
        let p1 = Program::new().irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        let c = gt.link(LinkClass::SameSocket);
        // Receiver done: inject + wire + cpu_recv (recv pre-posted at call_overhead).
        let inject = gt.call_overhead_ns + c.cpu_send_ns;
        let recv_done = inject + c.wire_ns + c.cpu_recv_ns;
        assert_eq!(res.finish[1], recv_done);
        // Sender done: + ack wire.
        assert_eq!(res.finish[0], recv_done + c.wire_ns);
    }

    #[test]
    fn inter_node_message_pays_nic_and_wire() {
        let m = MachineSpec::new(2, 1, 1);
        let gt = m.ground_truth.clone();
        let p0 = Program::new().issend(1).wait_all();
        let p1 = Program::new().irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        let c = gt.link(LinkClass::InterNode);
        let recv_done = gt.call_overhead_ns
            + c.cpu_send_ns
            + c.nic_tx_ns
            + c.wire_ns
            + c.nic_rx_ns
            + c.cpu_recv_ns;
        assert_eq!(res.finish[1], recv_done);
        assert_eq!(res.finish[0], recv_done + c.wire_ns);
    }

    #[test]
    fn payload_adds_bandwidth_term() {
        let m = MachineSpec::new(2, 1, 1);
        let gt = m.ground_truth.clone();
        let bytes = 1 << 16;
        let p0 = Program::new().issend_bytes(1, bytes).wait_all();
        let p1 = Program::new().irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        let c = gt.link(LinkClass::InterNode);
        let extra = (bytes as f64 * c.ns_per_byte).round() as Time;
        let expect = gt.call_overhead_ns
            + c.cpu_send_ns
            + c.nic_tx_ns
            + c.wire_ns
            + extra
            + c.nic_rx_ns
            + c.cpu_recv_ns;
        assert_eq!(res.finish[1], expect);
    }

    #[test]
    fn message_before_receive_is_queued() {
        // Receiver delays before posting: message waits, match at post time.
        let m = MachineSpec::new(1, 1, 2);
        let gt = m.ground_truth.clone();
        let c = *gt.link(LinkClass::SameSocket);
        let delay = 1_000_000;
        let p0 = Program::new().issend(1).wait_all();
        let p1 = Program::new().delay(delay).irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        let post = delay + gt.call_overhead_ns;
        assert_eq!(res.finish[1], post + c.cpu_recv_ns);
        assert_eq!(res.finish[0], post + c.cpu_recv_ns + c.wire_ns);
    }

    #[test]
    fn sync_send_blocks_until_receiver_participates() {
        // The Issend property §III relies on: sender completion implies
        // receiver involvement, so a late receiver delays the sender.
        let m = MachineSpec::new(2, 1, 1);
        let delay = 5_000_000;
        let p0 = Program::new().issend(1).wait_all().mark("sent");
        let p1 = Program::new().delay(delay).irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        assert!(res.finish[0] > delay);
    }

    #[test]
    fn wait_recvs_leaves_sends_in_flight() {
        // A same-step exchange: each rank passes `WaitRecvs` as soon as the
        // other's signal is consumed, and finishes one ack wire later.
        let m = MachineSpec::new(1, 1, 2);
        let gt = m.ground_truth.clone();
        let c = *gt.link(LinkClass::SameSocket);
        let p0 = Program::new().irecv(1).issend(1).wait_recvs().mark("recvd");
        let p1 = Program::new().irecv(0).issend(0).wait_recvs().mark("recvd");
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        let recv_done = 2 * gt.call_overhead_ns + c.cpu_send_ns + c.wire_ns + c.cpu_recv_ns;
        for r in 0..2 {
            assert_eq!(res.marks[r][0].1, recv_done, "rank {r}");
            assert_eq!(res.finish[r], recv_done + c.wire_ns, "rank {r}");
        }
        // A send-only step does not wait at all.
        let p0 = Program::new().issend(1).wait_recvs().mark("sent");
        let p1 = Program::new().irecv(0).wait_recvs();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        assert_eq!(res.marks[0][0].1, gt.call_overhead_ns + c.cpu_send_ns);
        assert_eq!(res.finish[0], res.finish[1] + c.wire_ns);
    }

    #[test]
    fn consecutive_sends_serialize_on_sender_cpu() {
        let m = MachineSpec::new(1, 2, 2);
        let gt = m.ground_truth.clone();
        // Rank 0 sends to 1 (same socket) and 2 (cross socket).
        let p0 = Program::new().issend(1).issend(2).wait_all();
        let p1 = Program::new().irecv(0).wait_all();
        let p2 = Program::new().irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1, 2])
            .run(&[p0, p1, p2], exact())
            .unwrap();
        let same = *gt.link(LinkClass::SameSocket);
        let cross = *gt.link(LinkClass::CrossSocket);
        let inj1 = gt.call_overhead_ns + same.cpu_send_ns;
        let inj2 = gt.call_overhead_ns + cross.cpu_send_ns;
        // Second injection starts only after the first finishes.
        let second_arrival = inj1 + inj2 + cross.wire_ns;
        assert_eq!(res.finish[2], second_arrival + cross.cpu_recv_ns);
    }

    #[test]
    fn nic_serializes_concurrent_inter_node_senders() {
        // Two ranks on node 0 send to two ranks on node 1 simultaneously:
        // the shared NIC TX forces one message behind the other.
        let m = MachineSpec::new(2, 1, 2);
        let gt = m.ground_truth.clone();
        let c = *gt.link(LinkClass::InterNode);
        let progs = vec![
            Program::new().issend(2).wait_all(),
            Program::new().issend(3).wait_all(),
            Program::new().irecv(0).wait_all(),
            Program::new().irecv(1).wait_all(),
        ];
        let res = engine_for(&m, &[0, 1, 2, 3]).run(&progs, exact()).unwrap();
        let first = gt.call_overhead_ns
            + c.cpu_send_ns
            + c.nic_tx_ns
            + c.wire_ns
            + c.nic_rx_ns
            + c.cpu_recv_ns;
        let finishes = [res.finish[2], res.finish[3]];
        let early = *finishes.iter().min().unwrap();
        let late = *finishes.iter().max().unwrap();
        assert_eq!(early, first);
        // The later message queued one NIC TX slot (RX slot overlaps it).
        assert_eq!(late, first + c.nic_tx_ns);
    }

    #[test]
    fn fifo_matching_per_pair() {
        // Two sends 0→1 match two receives in order; the pair completes.
        let m = MachineSpec::new(1, 1, 2);
        let p0 = Program::new().issend(1).issend(1).wait_all();
        let p1 = Program::new().irecv(0).irecv(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        assert!(res.finish[0] > 0 && res.finish[1] > 0);
    }

    #[test]
    fn two_way_traffic_on_one_pair_uses_two_channels() {
        // 0 → 1 and 1 → 0 at once, with rank 1 late: the channel into
        // rank 1 holds an arrived message while the channel into rank 0
        // holds a posted receive, and neither sees the other's entry.
        let m = MachineSpec::new(1, 1, 2);
        let gt = m.ground_truth.clone();
        let c = *gt.link(LinkClass::SameSocket);
        let delay = 1_000_000;
        let p0 = Program::new().irecv(1).issend(1).wait_all();
        let p1 = Program::new().delay(delay).irecv(0).issend(0).wait_all();
        let res = engine_for(&m, &[0, 1]).run(&[p0, p1], exact()).unwrap();
        // Rank 1 posts at `delay + overhead`, consumes the waiting message,
        // then injects its own on the CPU that consumption left busy.
        let consumed = delay + gt.call_overhead_ns + c.cpu_recv_ns;
        let injected = consumed + gt.call_overhead_ns + c.cpu_send_ns;
        let recv_done_0 = injected + c.wire_ns + c.cpu_recv_ns;
        assert_eq!(res.finish[0], recv_done_0);
        assert_eq!(res.finish[1], recv_done_0 + c.wire_ns);
        assert_eq!(res.events, 2 + 1 + 2 * 3, "start ×2, delay, 3 per message");
    }

    #[test]
    fn root_with_every_other_rank_as_peer() {
        // A linear barrier: the root's P − 1 inbound and P − 1 outbound
        // channels are the most any rank can have.
        let m = MachineSpec::new(4, 2, 4);
        let p = m.total_cores();
        let mut root = Program::new();
        for r in 1..p {
            root.push_irecv(r);
        }
        root.push_wait_all();
        root.push_mark("gathered");
        for r in 1..p {
            root.push_issend(r);
        }
        root.push_wait_all();
        let mut programs = vec![root];
        programs.extend((1..p).map(|_| Program::new().issend(0).wait_all().irecv(0).wait_all()));
        let cores: Vec<usize> = (0..p).collect();
        let res = engine_for(&m, &cores)
            .run(&programs, NoiseState::new(NoiseModel::realistic(7), 1))
            .unwrap();
        assert_eq!(res.events, (p + 3 * 2 * (p - 1)) as u64);
        let gathered = res.marks[0][0].1;
        assert!(res.finish[1..].iter().all(|&f| f > gathered));
    }

    #[test]
    fn deadlock_is_reported() {
        let m = MachineSpec::new(1, 1, 2);
        // Receive that never gets a message.
        let p0 = Program::new().irecv(1).wait_all();
        let err = engine_for(&m, &[0, 1])
            .run(&[p0, Program::new()], exact())
            .unwrap_err();
        assert_eq!(err.stuck.len(), 1);
        assert_eq!(err.stuck[0].0, 0);
        assert_eq!(err.stuck[0].2, 1, "one outstanding request");
    }

    #[test]
    fn marks_record_virtual_times() {
        let m = MachineSpec::new(1, 1, 2);
        let p0 = Program::new().mark("start").delay(500).mark("end");
        let res = engine_for(&m, &[0, 1])
            .run(&[p0, Program::new()], exact())
            .unwrap();
        assert_eq!(res.marks[0][0], ("start".into(), 0));
        assert_eq!(res.marks[0][1], ("end".into(), 500));
    }

    #[test]
    #[should_panic(expected = "sends to itself")]
    fn self_send_rejected() {
        let m = MachineSpec::new(1, 1, 2);
        let p0 = Program::new().issend(0);
        let _ = engine_for(&m, &[0, 1]).run(&[p0, Program::new()], exact());
    }

    #[test]
    #[should_panic(expected = "message count fits the slot arena")]
    fn repetitions_past_the_slot_arena_are_refused_before_allocating() {
        let m = MachineSpec::new(1, 1, 2);
        let p0 = Program::new().issend(1).issend(1).repeated(1 << 31);
        let p1 = Program::new().irecv(0).irecv(0).repeated(1 << 31);
        engine_for(&m, &[0, 1]).bind(&[p0, p1]);
    }

    #[test]
    fn determinism_across_runs() {
        let m = MachineSpec::new(2, 1, 2);
        let progs = vec![
            Program::new().issend(2).irecv(3).wait_all(),
            Program::new().issend(3).irecv(2).wait_all(),
            Program::new()
                .issend(3)
                .irecv(0)
                .wait_all()
                .issend(1)
                .wait_all(),
            Program::new()
                .irecv(1)
                .irecv(2)
                .wait_all()
                .issend(0)
                .wait_all(),
        ];
        let r1 = engine_for(&m, &[0, 1, 2, 3]).run(&progs, exact()).unwrap();
        let r2 = engine_for(&m, &[0, 1, 2, 3]).run(&progs, exact()).unwrap();
        assert_eq!(r1.finish, r2.finish);
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn reused_engine_matches_fresh_engine() {
        // The reuse contract: bind + run on one engine is bit-identical
        // to constructing a fresh engine per run, including under noise
        // and after a deadlocked run left state behind.
        let m = MachineSpec::new(2, 1, 2);
        let progs = vec![
            Program::new().issend(2).wait_all().irecv(2).wait_all(),
            Program::new().issend(3).wait_all(),
            Program::new()
                .irecv(0)
                .wait_all()
                .issend(0)
                .wait_all()
                .mark("ack"),
            Program::new().irecv(1).wait_all(),
        ];
        let noise = NoiseModel::realistic(41);
        let mut reused = engine_for(&m, &[0, 1, 2, 3]);
        // Poison the reused engine with a deadlocked run first.
        let deadlocked: Vec<Program> = vec![
            Program::new().irecv(1).wait_all(),
            Program::new(),
            Program::new(),
            Program::new(),
        ];
        assert!(reused.run(&deadlocked, NoiseState::new(noise, 0)).is_err());
        for salt in 0..4 {
            let a = reused.run(&progs, NoiseState::new(noise, salt)).unwrap();
            let mut fresh = engine_for(&m, &[0, 1, 2, 3]);
            let b = fresh.run(&progs, NoiseState::new(noise, salt)).unwrap();
            assert_eq!(a.finish, b.finish, "salt {salt}");
            assert_eq!(a.events, b.events, "salt {salt}");
            assert_eq!(a.marks, b.marks, "salt {salt}");
        }
    }

    #[test]
    fn trace_is_per_run_and_cleared_on_reuse() {
        let m = MachineSpec::new(1, 1, 2);
        let progs = vec![
            Program::new().issend(1).wait_all(),
            Program::new().irecv(0).wait_all(),
        ];
        let mut eng = engine_for(&m, &[0, 1]);
        eng.enable_trace();
        let traced = eng.run(&progs, exact()).unwrap();
        let trace = traced.trace.expect("trace enabled");
        assert_eq!(trace.injected_messages(), 1);
        // The next run is untraced and otherwise identical.
        let untraced = eng.run(&progs, exact()).unwrap();
        assert!(untraced.trace.is_none());
        assert_eq!(untraced.finish, traced.finish);
    }

    #[test]
    fn trace_of_a_deadlocked_run_does_not_leak_into_the_next() {
        let m = MachineSpec::new(1, 1, 2);
        let mut eng = engine_for(&m, &[0, 1]);
        eng.enable_trace();
        let stuck = [Program::new().irecv(1).wait_all(), Program::new()];
        assert!(eng.run(&stuck, exact()).is_err());
        let progs = [
            Program::new().issend(1).wait_all(),
            Program::new().irecv(0).wait_all(),
        ];
        let untraced = eng.run(&progs, exact()).unwrap();
        assert!(untraced.trace.is_none(), "tracing outlived its run");
    }
}
