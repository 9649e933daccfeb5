//! Memory gate: a simulated barrier repeated R times holds its body once,
//! so R only adds the queue slots of its messages.
//!
//! A rank's program is one barrier and a repetition count, not R copies
//! of it: a run's heap grows with R by 8 bytes per message (the channel
//! slot each one may occupy), not by the instructions that would name
//! it. This binary holds one test, because it counts through the
//! process-wide allocator.

use hbarrier::prelude::*;
use hbarrier::simnet::barrier::measure_schedule;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tracking the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// statistics and guard nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most heap `work` holds live at once beyond what was live before it,
/// in bytes.
fn peak_live<T>(work: impl FnOnce() -> T) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    std::hint::black_box(work());
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn repetitions_add_only_their_messages_slots() {
    let p = 256;
    let members: Vec<usize> = (0..p).collect();
    let schedule = Algorithm::Dissemination.full_schedule(p, &members);
    let signals = schedule.total_signals();
    let cfg = SimConfig::exact(MachineSpec::new(p / 8, 2, 4), RankMapping::Block);
    let peak = |reps| {
        let mut world = SimWorld::new(cfg.clone(), p);
        peak_live(|| measure_schedule(&mut world, &schedule, reps))
    };
    let (few, many) = (peak(20), peak(200));
    // 180 more repetitions: 8 bytes of queue slot per extra message.
    let slots = 8 * 180 * signals;
    assert!(
        many.saturating_sub(few) * 4 <= slots * 5,
        "200 repetitions of a {signals}-signal barrier held {many} B, 20 held {few} B: \
         {:.2} × the extra messages' slots",
        (many - few) as f64 / slots as f64,
    );
}
