//! In-memory span recorder and the self-time arithmetic over its output.
//!
//! Spans are recorded from the benchmark's own code, around the calls into
//! each layer's public functions; nothing inside the program under test is
//! instrumented. The recorder serves one thread (the workload driver), so a
//! span's parent is simply the span that was open when it started.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this span sits on (`profile`, `tune`, ...).
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, `None` for a root.
    pub parent: Option<usize>,
    /// The operation (episode, step, request) this span belongs to.
    pub episode: u32,
    /// A standalone re-measurement of one layer, run next to the episode
    /// to size it; excluded from every sum over the episode.
    pub probe: bool,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The recorder. Disabled (the default) it records nothing and a span
/// guard is a no-op, which is how the untraced runs execute the same code.
pub struct Recorder {
    origin: Instant,
    enabled: Cell<bool>,
    episode: Cell<u32>,
    inner: RefCell<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            enabled: Cell::new(false),
            episode: Cell::new(0),
            inner: RefCell::default(),
        }
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    index: Option<usize>,
}

impl Recorder {
    /// Turns recording on or off; takes effect for spans opened afterwards.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_episode(&self, id: u32) {
        self.episode.set(id);
    }

    /// Opens a span under the currently open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, false)
    }

    /// Opens a probe span (see [`Span::probe`]).
    pub fn probe(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, true)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, probe: bool) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                recorder: self,
                index: None,
            };
        }
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        inner.open.push(index);
        // Timestamp last, so the bookkeeping above is charged to the parent.
        let start_ns = self.now_ns();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            episode: self.episode.get(),
            probe,
        });
        SpanGuard {
            recorder: self,
            index: Some(index),
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = self.recorder.now_ns();
        let mut inner = self.recorder.inner.borrow_mut();
        inner.spans[index].end_ns = end_ns;
        // Normally the top of the stack; `retain` also copes with a guard
        // that was dropped out of order.
        inner.open.retain(|&i| i != index);
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// What one operation's spans add up to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpisodeTimes {
    /// Duration of the root span, seconds.
    pub root_s: f64,
    /// Self time of the root span, seconds: time no layer span accounts for.
    pub root_self_s: f64,
    /// Per span name, summed over the operation: `(total, self)` seconds.
    /// Probe spans and their descendants are left out.
    pub by_name: BTreeMap<&'static str, (f64, f64)>,
}

impl EpisodeTimes {
    /// Summed duration of the spans called `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.0)
    }

    /// Summed self time of the spans called `name`, seconds.
    pub fn self_time(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.1)
    }

    /// Sum of every span's self time, root included, seconds. Equals
    /// `root_s` exactly when the spans nest properly.
    pub fn self_sum_s(&self) -> f64 {
        self.by_name.values().map(|t| t.1).sum()
    }
}

/// Groups the non-probe spans by operation. Operations are keyed by their
/// root span (a non-probe span without a parent), in recording order.
pub fn episodes(spans: &[Span]) -> Vec<EpisodeTimes> {
    let selfs = self_times(spans);
    // Root of each span, and whether a probe sits on the way up. Parents
    // always precede their children in recording order.
    let mut root = vec![0usize; spans.len()];
    let mut in_probe = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => {
                root[i] = root[p];
                in_probe[i] = in_probe[p] || s.probe;
            }
            None => {
                root[i] = i;
                in_probe[i] = s.probe;
            }
        }
    }
    let mut out: BTreeMap<usize, EpisodeTimes> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if in_probe[i] {
            continue;
        }
        let e = out.entry(root[i]).or_default();
        let slot = e.by_name.entry(s.name).or_insert((0.0, 0.0));
        slot.0 += s.duration_ns() as f64 * 1e-9;
        slot.1 += selfs[i] as f64 * 1e-9;
        if s.parent.is_none() {
            e.root_s = s.duration_ns() as f64 * 1e-9;
            e.root_self_s = selfs[i] as f64 * 1e-9;
        }
    }
    out.into_values().collect()
}

/// Durations (seconds) of the probe spans called `name`.
pub fn probe_durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.probe && s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}
