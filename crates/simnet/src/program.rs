//! Per-process instruction programs.
//!
//! A simulated process executes a straight-line program of communication
//! calls — the same execution model as the paper's general barrier
//! simulator (nonblocking synchronized sends, nonblocking receives, a
//! wait for the receives per stage and for everything at exit), plus the
//! pieces its benchmarks need (payload sends, compute delays,
//! transmission-free calls).
//!
//! `Instr` is `Copy`: mark labels are interned into a per-program label
//! table and referenced by [`LabelId`], so the engine's interpreter loop
//! can read instructions by value without touching the heap.
//!
//! A program is a *body* and a repetition count: the process runs the
//! body that many times back to back, exactly as if it were written out
//! that many times. Barrier measurements repeat one barrier and the
//! `O_ii` benchmark one call, so neither program grows with its
//! repetitions.

use crate::Time;
use serde::{Deserialize, Serialize};

/// Index into a program's interned label table (see [`Program::label`]).
pub type LabelId = u32;

/// One instruction of a simulated process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// Nonblocking synchronous send of `bytes` payload to `dst`; completes
    /// only after the receiver has processed the message (`MPI_Issend`).
    Issend { dst: usize, bytes: usize },
    /// Nonblocking receive of one message from `src` (`MPI_Irecv`).
    Irecv { src: usize },
    /// Block until every request issued so far has completed
    /// (`MPI_Waitall` over the process's request array).
    WaitAll,
    /// Block until every receive posted so far has completed
    /// (`MPI_Waitall` over the receive requests only); sends stay
    /// outstanding.
    WaitRecvs,
    /// Local computation for the given virtual duration (used by the
    /// staggered-delay synchronization check of §VI).
    Delay { ns: Time },
    /// A communication call that causes no transmission — the workload of
    /// the paper's `O_ii` benchmark.
    NoOpCall,
    /// Records the current virtual time under an interned label.
    Mark { label: LabelId },
}

/// A straight-line program for one simulated process: a body of
/// instructions, run [`reps`](Self::reps) times back to back.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    /// The body.
    pub instrs: Vec<Instr>,
    /// Interned `Mark` label strings, indexed by [`LabelId`].
    pub labels: Vec<String>,
    /// How many times the body runs; at least 1.
    reps: usize,
}

impl Default for Program {
    fn default() -> Self {
        Program::with_capacity(0)
    }
}

impl Program {
    /// An empty program (the process finishes immediately at time 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty program with instruction capacity reserved up front, so
    /// bulk builders (32-message bursts) never reallocate per instruction.
    pub fn with_capacity(instrs: usize) -> Self {
        Program {
            instrs: Vec::with_capacity(instrs),
            labels: Vec::new(),
            reps: 1,
        }
    }

    /// How many times the body runs back to back (1 unless set).
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Runs the body `reps` times back to back: the process behaves
    /// exactly as if the body were written out `reps` times — the same
    /// messages, marks and finish time — but the program stays one body
    /// long.
    ///
    /// # Panics
    /// Panics if `reps` is 0.
    pub fn set_reps(&mut self, reps: usize) {
        assert!(reps > 0, "a program runs its body at least once");
        self.reps = reps;
    }

    /// Runs the body `reps` times back to back (by-value chaining; see
    /// [`set_reps`](Self::set_reps)).
    pub fn repeated(mut self, reps: usize) -> Self {
        self.set_reps(reps);
        self
    }

    /// Reserves capacity for at least `additional` more instructions.
    pub fn reserve(&mut self, additional: usize) {
        self.instrs.reserve(additional);
    }

    /// Removes all instructions and labels and runs the body once again,
    /// retaining capacity — the reuse hook for benchmark scratch buffers.
    pub fn clear(&mut self) {
        self.instrs.clear();
        self.labels.clear();
        self.reps = 1;
    }

    /// Appends a synchronous zero-byte signal send.
    pub fn push_issend(&mut self, dst: usize) {
        self.instrs.push(Instr::Issend { dst, bytes: 0 });
    }

    /// Appends a synchronous payload send.
    pub fn push_issend_bytes(&mut self, dst: usize, bytes: usize) {
        self.instrs.push(Instr::Issend { dst, bytes });
    }

    /// Appends a nonblocking receive.
    pub fn push_irecv(&mut self, src: usize) {
        self.instrs.push(Instr::Irecv { src });
    }

    /// Appends a completion wait.
    pub fn push_wait_all(&mut self) {
        self.instrs.push(Instr::WaitAll);
    }

    /// Appends a wait for the receives posted so far.
    pub fn push_wait_recvs(&mut self) {
        self.instrs.push(Instr::WaitRecvs);
    }

    /// Appends a compute delay.
    pub fn push_delay(&mut self, ns: Time) {
        self.instrs.push(Instr::Delay { ns });
    }

    /// Appends a transmission-free call.
    pub fn push_noop_call(&mut self) {
        self.instrs.push(Instr::NoOpCall);
    }

    /// Appends a timestamp mark, interning the label.
    pub fn push_mark(&mut self, label: &str) {
        let id = self.intern(label);
        self.instrs.push(Instr::Mark { label: id });
    }

    /// Interns a label string, returning its id (labels are few, so a
    /// linear scan beats a hash map).
    pub fn intern(&mut self, label: &str) -> LabelId {
        if let Some(id) = self.labels.iter().position(|l| l == label) {
            return id as LabelId;
        }
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as LabelId
    }

    /// Resolves an interned label id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this program's interner.
    pub fn label(&self, id: LabelId) -> &str {
        &self.labels[id as usize]
    }

    /// Appends a synchronous zero-byte signal send (by-value chaining).
    pub fn issend(mut self, dst: usize) -> Self {
        self.push_issend(dst);
        self
    }

    /// Appends a synchronous payload send (by-value chaining).
    pub fn issend_bytes(mut self, dst: usize, bytes: usize) -> Self {
        self.push_issend_bytes(dst, bytes);
        self
    }

    /// Appends a nonblocking receive (by-value chaining).
    pub fn irecv(mut self, src: usize) -> Self {
        self.push_irecv(src);
        self
    }

    /// Appends a completion wait (by-value chaining).
    pub fn wait_all(mut self) -> Self {
        self.push_wait_all();
        self
    }

    /// Appends a wait for the receives posted so far (by-value chaining).
    pub fn wait_recvs(mut self) -> Self {
        self.push_wait_recvs();
        self
    }

    /// Appends a compute delay (by-value chaining).
    pub fn delay(mut self, ns: Time) -> Self {
        self.push_delay(ns);
        self
    }

    /// Appends a transmission-free call (by-value chaining).
    pub fn noop_call(mut self) -> Self {
        self.push_noop_call();
        self
    }

    /// Appends a timestamp mark (by-value chaining).
    pub fn mark(mut self, label: &str) -> Self {
        self.push_mark(label);
        self
    }

    /// Number of instructions in the body.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the body has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Number of send instructions in the body (used by tests to
    /// sanity-check program builders).
    pub fn send_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::Issend { .. }))
            .count()
    }

    /// Number of receive instructions in the body.
    pub fn recv_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::Irecv { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let p = Program::new()
            .delay(100)
            .irecv(2)
            .issend(1)
            .wait_all()
            .mark("done");
        assert_eq!(p.len(), 5);
        assert_eq!(p.send_count(), 1);
        assert_eq!(p.recv_count(), 1);
        assert_eq!(p.instrs[0], Instr::Delay { ns: 100 });
        assert_eq!(p.instrs[4], Instr::Mark { label: 0 });
        assert_eq!(p.label(0), "done");
    }

    #[test]
    fn payload_send_records_bytes() {
        let p = Program::new().issend_bytes(3, 4096);
        assert_eq!(
            p.instrs[0],
            Instr::Issend {
                dst: 3,
                bytes: 4096
            }
        );
    }

    #[test]
    fn empty_program() {
        let p = Program::new();
        assert!(p.is_empty());
        assert_eq!(p.send_count(), 0);
    }

    #[test]
    fn mut_builders_match_chaining() {
        let chained = Program::new()
            .irecv(0)
            .issend(1)
            .wait_recvs()
            .wait_all()
            .mark("x");
        let mut pushed = Program::with_capacity(5);
        pushed.push_irecv(0);
        pushed.push_issend(1);
        pushed.push_wait_recvs();
        pushed.push_wait_all();
        pushed.push_mark("x");
        assert_eq!(chained, pushed);
    }

    #[test]
    fn with_capacity_does_not_reallocate() {
        let n = 25 * 33;
        let mut p = Program::with_capacity(n);
        let cap = p.instrs.capacity();
        assert!(cap >= n);
        for _ in 0..n {
            p.push_issend(1);
        }
        assert_eq!(p.instrs.capacity(), cap, "no reallocation during build");
    }

    #[test]
    fn labels_are_interned_and_deduplicated() {
        let mut p = Program::new();
        p.push_mark("enter");
        p.push_mark("exit");
        p.push_mark("enter");
        assert_eq!(p.labels, vec!["enter".to_string(), "exit".to_string()]);
        assert_eq!(p.instrs[0], Instr::Mark { label: 0 });
        assert_eq!(p.instrs[2], Instr::Mark { label: 0 });
    }

    #[test]
    fn clear_retains_capacity() {
        let mut p = Program::with_capacity(64);
        for _ in 0..64 {
            p.push_noop_call();
        }
        p.set_reps(3);
        let cap = p.instrs.capacity();
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.reps(), 1);
        assert_eq!(p.instrs.capacity(), cap);
    }

    #[test]
    fn repetition_count_defaults_to_one() {
        assert_eq!(Program::new().reps(), 1);
        assert_eq!(Program::new().noop_call().repeated(4).reps(), 4);
        assert_ne!(Program::new().repeated(2), Program::new());
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn zero_repetitions_rejected() {
        Program::new().set_reps(0);
    }

    #[test]
    fn instr_is_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Instr>();
    }
}
