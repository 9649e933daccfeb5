//! Memory gate: the analyzer's schedule lints hold a fixed number of
//! knowledge matrices, however many stages the schedule has.
//!
//! The lints walk Eq. 3 once and read each stage's knowledge as they pass
//! it, so a deep schedule costs no more live heap than a shallow one.
//! This binary holds one test, because it counts through the process-wide
//! allocator.

use hbarrier::prelude::*;
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
fn schedule_lints_hold_a_fixed_number_of_knowledge_matrices() {
    let p = 2048;
    let matrix = p * p / 8;
    let members: Vec<usize> = (0..p).collect();
    let schedule = Algorithm::Dissemination.full_schedule(p, &members);
    assert_eq!(schedule.len(), 11);
    let cfg = AnalyzeConfig {
        dead_signals: false,
        progress: false,
        roundtrip: false,
        ..AnalyzeConfig::default()
    };

    // `analyze_schedule` compiles the rank programs whatever its config,
    // so the lints are measured against the compile on its own.
    let compile = peak_live(|| compile_schedule(&schedule).expect("compiles"));
    let mut report = None;
    let analysis = peak_live(|| report = Some(analyze_schedule(&schedule, &cfg)));
    let report = report.expect("analyzed");
    assert!(report.is_clean(), "{report}");
    assert!(
        analysis <= compile + 3 * matrix,
        "analyzing an {}-stage P = {p} schedule held {:.1} P²/8 bytes; compiling it {:.1}",
        schedule.len(),
        analysis as f64 / matrix as f64,
        compile as f64 / matrix as f64,
    );
}
