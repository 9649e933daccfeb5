//! Offline stand-in for `rayon`.
//!
//! The workspace uses rayon as a deterministic data-parallel map: every
//! call site is `par_iter()/into_par_iter()` followed by `map(...)` and an
//! order-preserving `collect()`/`sum()`, or `par_chunks_mut()` followed by
//! `enumerate().for_each(...)`. This shim reproduces exactly that
//! contract on `std::thread::scope`: inputs are split into contiguous
//! chunks, one OS thread per chunk, and outputs land in input order, so
//! results are bit-identical to the sequential loop regardless of thread
//! count or scheduling.
//!
//! [`join`] runs two closures side by side, the second on a scoped
//! thread of its own.
//!
//! `RAYON_NUM_THREADS` is honoured (like upstream): `1` forces the
//! sequential path.

use std::sync::OnceLock;

/// Number of worker threads the pool would use.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Runs `a` on the calling thread and `b` on a scoped thread, returning
/// both results; with one worker thread, `a` then `b` in sequence. A panic
/// in either closure propagates to the caller.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let b = scope.spawn(b);
        let ra = a();
        let rb = b.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (ra, rb)
    })
}

/// A not-yet-mapped parallel iterator holding its items by value.
pub struct ParIter<I> {
    items: Vec<I>,
}

/// A mapped parallel iterator; consumed by `collect`/`sum`.
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I: Send> ParIter<I> {
    /// Applies `f` to every item in parallel, preserving input order.
    pub fn map<R, F>(self, f: F) -> ParMap<I, F>
    where
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Number of items behind the iterator.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Accepted for API compatibility; chunking is already contiguous.
    pub fn with_min_len(self, _min: usize) -> Self {
        self
    }

    /// Pairs every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(I) + Sync>(self, f: F) {
        par_map_ordered(self.items, &f);
    }
}

impl<I: Send, R: Send, F: Fn(I) -> R + Sync> ParMap<I, F> {
    /// Gathers results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        par_map_ordered(self.items, &self.f).into_iter().collect()
    }

    /// Gathers results in input order, scheduling items dynamically with
    /// work stealing instead of static contiguous chunks. Same output as
    /// [`Self::collect`] (order-stable, bit-identical results), different
    /// wall clock: use when item costs are wildly uneven — e.g. one class
    /// representative growing its repetitions 8× while its neighbours
    /// finish instantly — where static chunking strands whole chunks
    /// behind one slow item.
    pub fn collect_stealing<C: FromIterator<R>>(self) -> C {
        par_map_ordered_stealing(self.items, &self.f)
            .into_iter()
            .collect()
    }

    /// Sums results; addition order equals input order.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        par_map_ordered(self.items, &self.f).into_iter().sum()
    }
}

/// Work-stealing fork-join map with stable output order.
///
/// Each worker owns a contiguous index interval and pops from its front;
/// an idle worker steals the back half of the largest remaining interval
/// (classic interval stealing — cache-friendly for the victim, balanced
/// for the thief). Intervals are tiny `Mutex<(start, end)>`s: a lock is
/// taken once per item pop and once per steal, which is noise next to the
/// millisecond-scale items this shim schedules.
fn par_map_ordered_stealing<I: Send, R: Send, F: Fn(I) -> R + Sync>(
    items: Vec<I>,
    f: &F,
) -> Vec<R> {
    use std::cell::UnsafeCell;
    use std::sync::Mutex;

    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    /// Slot arrays shared across workers. Safety: interval ownership
    /// guarantees each index is popped (and therefore accessed) by exactly
    /// one worker, and the scope join orders all writes before the reads
    /// below.
    struct Slots<'a, T>(&'a [UnsafeCell<T>]);
    unsafe impl<T: Send> Sync for Slots<'_, T> {}

    let inputs: Vec<UnsafeCell<Option<I>>> = items
        .into_iter()
        .map(|v| UnsafeCell::new(Some(v)))
        .collect();
    let mut outputs: Vec<UnsafeCell<Option<R>>> = Vec::with_capacity(n);
    outputs.resize_with(n, || UnsafeCell::new(None));
    let in_slots = Slots(&inputs);
    let out_slots = Slots(&outputs);

    let chunk = n.div_ceil(threads);
    let intervals: Vec<Mutex<(usize, usize)>> = (0..threads)
        .map(|t| Mutex::new(((t * chunk).min(n), ((t + 1) * chunk).min(n))))
        .collect();
    let intervals = &intervals;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let in_slots = &in_slots;
            let out_slots = &out_slots;
            scope.spawn(move || loop {
                // Pop the front of our own interval.
                let mine = {
                    let mut iv = intervals[t].lock().expect("interval lock");
                    if iv.0 < iv.1 {
                        let i = iv.0;
                        iv.0 += 1;
                        Some(i)
                    } else {
                        None
                    }
                };
                if let Some(i) = mine {
                    // Safety: index `i` was popped exactly once (see Slots).
                    unsafe {
                        let item = (*in_slots.0[i].get()).take().expect("popped twice");
                        *out_slots.0[i].get() = Some(f(item));
                    }
                    continue;
                }
                // Steal the back half of the largest other interval.
                let victim = (0..threads)
                    .filter(|&v| v != t)
                    .map(|v| {
                        let iv = intervals[v].lock().expect("interval lock");
                        (v, iv.1.saturating_sub(iv.0))
                    })
                    .max_by_key(|&(_, len)| len);
                match victim {
                    Some((v, len)) if len > 0 => {
                        let stolen = {
                            let mut iv = intervals[v].lock().expect("interval lock");
                            let avail = iv.1.saturating_sub(iv.0);
                            if avail == 0 {
                                None
                            } else {
                                let take = avail.div_ceil(2);
                                let range = (iv.1 - take, iv.1);
                                iv.1 -= take;
                                Some(range)
                            }
                        };
                        if let Some(range) = stolen {
                            *intervals[t].lock().expect("interval lock") = range;
                        }
                    }
                    _ => break, // nothing anywhere: all work popped
                }
            });
        }
    });

    outputs
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker left a hole"))
        .collect()
}

/// The core primitive: chunked fork-join map with stable output order.
fn par_map_ordered<I: Send, R: Send, F: Fn(I) -> R + Sync>(items: Vec<I>, f: &F) -> Vec<R> {
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut inputs: Vec<Option<I>> = items.into_iter().map(Some).collect();
    let mut outputs: Vec<Option<R>> = Vec::with_capacity(n);
    outputs.resize_with(n, || None);
    std::thread::scope(|scope| {
        for (ins, outs) in inputs.chunks_mut(chunk).zip(outputs.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (slot_in, slot_out) in ins.iter_mut().zip(outs.iter_mut()) {
                    *slot_out = Some(f(slot_in.take().expect("input consumed twice")));
                }
            });
        }
    });
    outputs
        .into_iter()
        .map(|slot| slot.expect("worker left a hole"))
        .collect()
}

/// `into_par_iter()` for owned collections.
pub trait IntoParallelIterator {
    /// Element type produced by the iterator.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// `par_iter()` for borrowed collections.
pub trait IntoParallelRefIterator<'data> {
    /// Element type produced by the iterator (a shared reference).
    type Item: Send + 'data;
    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_chunks_mut()` for mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into disjoint mutable chunks of `chunk_size`
    /// elements (the last may be shorter), one parallel item each.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, (0..1000).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn join_returns_both_results_in_order() {
        let words = ["a", "bb"];
        let (a, b) = super::join(|| words[0].len(), || words[1].len());
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn par_iter_borrows() {
        let words = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let lens: Vec<usize> = words.par_iter().map(|w| w.len()).collect();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn chunks_mut_for_each_writes_every_chunk_in_place() {
        let mut cells = vec![0usize; 1003];
        cells
            .par_chunks_mut(10)
            .enumerate()
            .for_each(|(c, chunk)| chunk.iter_mut().for_each(|v| *v = c));
        assert!(cells.iter().enumerate().all(|(i, &v)| v == i / 10));
    }

    #[test]
    fn sum_matches_sequential() {
        let total: u64 = (0..257usize).into_par_iter().map(|i| i as u64).sum();
        assert_eq!(total, 256 * 257 / 2);
    }

    #[test]
    fn stealing_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect_stealing();
        assert_eq!(squares, (0..1000).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_balances_skewed_costs() {
        // One pathological item at the front of the range: static chunking
        // would strand the first chunk behind it; stealing must still
        // return the right answer (timing is not asserted, only totals).
        let out: Vec<u64> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                let spins = if i == 0 { 200_000 } else { 200 };
                let mut acc = i as u64;
                for k in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                acc ^ i as u64
            })
            .collect_stealing();
        assert_eq!(out.len(), 64);
        let seq: Vec<u64> = (0..64usize)
            .map(|i| {
                let spins = if i == 0 { 200_000 } else { 200 };
                let mut acc = i as u64;
                for k in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                acc ^ i as u64
            })
            .collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn stealing_handles_tiny_inputs() {
        let one: Vec<usize> = vec![7usize]
            .into_par_iter()
            .map(|i| i + 1)
            .collect_stealing();
        assert_eq!(one, vec![8]);
        let empty: Vec<usize> = Vec::<usize>::new()
            .into_par_iter()
            .map(|i| i)
            .collect_stealing();
        assert!(empty.is_empty());
    }
}
