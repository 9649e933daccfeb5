//! The sharded schedule cache behind `hbar serve`'s warm path.
//!
//! `N` independent shards, each its own mutex around a slab-backed
//! intrusive LRU list: a lookup takes one shard lock, one `HashMap`
//! probe, and two pointer swaps to refresh recency — no allocation, no
//! global lock, so concurrent hits on different shards never contend.
//! Shard choice is Fibonacci multiplicative hashing over the (already
//! uniform) cache key, see [`CacheKey::shard_hash`].
//!
//! Every shard enforces two budgets: an entry capacity and an
//! approximate bytes budget (the caller passes each value's weight at
//! insert, and re-weighs a value that grows in place). Eviction pops the least-recently-used entry until both
//! budgets hold again, always keeping at least the entry being inserted.

use crate::proto::CacheKey;
use std::collections::HashMap;
use std::sync::Mutex;

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

/// Cache shape: shard count and the *total* budgets, split evenly
/// across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independent shards (≥ 1; more shards, less lock
    /// contention, coarser budget split).
    pub shards: usize,
    /// Total entry capacity across all shards.
    pub capacity: usize,
    /// Total approximate bytes budget across all shards.
    pub bytes_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            capacity: 4096,
            bytes_budget: 256 << 20,
        }
    }
}

/// Aggregated counters over all shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Entries currently resident.
    pub entries: u64,
    /// Approximate resident bytes (sum of inserted weights).
    pub bytes: u64,
    /// Entries evicted since construction.
    pub evictions: u64,
}

struct Slot<V> {
    key: CacheKey,
    value: V,
    weight: usize,
    prev: usize,
    next: usize,
}

struct Shard<V> {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot (eviction victim).
    tail: usize,
    bytes: usize,
    capacity: usize,
    bytes_budget: usize,
    evictions: u64,
}

impl<V: Clone> Shard<V> {
    fn new(capacity: usize, bytes_budget: usize) -> Shard<V> {
        Shard {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            capacity,
            bytes_budget,
            evictions: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].prev = idx,
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(self.slots[idx].value.clone())
    }

    fn peek(&self, key: &CacheKey) -> Option<V> {
        self.map.get(key).map(|&idx| self.slots[idx].value.clone())
    }

    fn evict_tail(&mut self) {
        let victim = self.tail;
        if victim == NIL {
            return;
        }
        self.unlink(victim);
        self.bytes -= self.slots[victim].weight;
        self.map.remove(&self.slots[victim].key);
        self.free.push(victim);
        self.evictions += 1;
    }

    fn insert(&mut self, key: CacheKey, value: V, weight: usize) {
        if let Some(&idx) = self.map.get(&key) {
            // Same key tuned twice (benign race between coalesced
            // flights): refresh value and accounting.
            self.slots[idx].value = value;
            self.recharge(idx, weight);
        } else {
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = Slot {
                        key,
                        value,
                        weight,
                        prev: NIL,
                        next: NIL,
                    };
                    i
                }
                None => {
                    self.slots.push(Slot {
                        key,
                        value,
                        weight,
                        prev: NIL,
                        next: NIL,
                    });
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, idx);
            self.bytes += weight;
            self.push_front(idx);
        }
        self.shed();
    }

    fn reweigh(&mut self, key: &CacheKey, weigh: impl FnOnce(&V) -> usize) {
        let Some(&idx) = self.map.get(key) else {
            return;
        };
        self.recharge(idx, weigh(&self.slots[idx].value));
        self.shed();
    }

    /// Charges slot `idx` at `weight` and makes it the most recent.
    fn recharge(&mut self, idx: usize, weight: usize) {
        self.bytes = self.bytes - self.slots[idx].weight + weight;
        self.slots[idx].weight = weight;
        self.touch(idx);
    }

    /// Evicts from the tail until both budgets hold. The entry at the
    /// head — the one just inserted or re-weighed — survives even when it
    /// alone exceeds the bytes budget (otherwise a single oversized
    /// schedule would thrash forever).
    fn shed(&mut self) {
        while self.map.len() > 1
            && (self.map.len() > self.capacity || self.bytes > self.bytes_budget)
        {
            self.evict_tail();
        }
    }
}

/// The sharded LRU cache. `V` is cloned out on hit — callers store
/// `Arc`s so a hit is a refcount bump.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
}

impl<V: Clone> ShardedCache<V> {
    /// Builds the cache, splitting the budgets evenly (rounding up, so
    /// the configured totals are never undershot).
    pub fn new(cfg: &CacheConfig) -> ShardedCache<V> {
        let n = cfg.shards.max(1);
        let per_cap = cfg.capacity.div_ceil(n).max(1);
        let per_bytes = cfg.bytes_budget.div_ceil(n).max(1);
        ShardedCache {
            shards: (0..n)
                .map(|_| Mutex::new(Shard::new(per_cap, per_bytes)))
                .collect(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard<V>> {
        let h = key.shard_hash();
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up, refreshing its recency on hit.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        self.shard(key).lock().expect("shard lock").get(key)
    }

    /// Looks `key` up without touching recency — the double-check under
    /// the in-flight lock uses this so probing cannot perturb LRU order.
    pub fn peek(&self, key: &CacheKey) -> Option<V> {
        self.shard(key).lock().expect("shard lock").peek(key)
    }

    /// Inserts (or refreshes) `key`, charging `weight` approximate
    /// bytes, then evicts LRU entries until the shard's budgets hold.
    pub fn insert(&self, key: CacheKey, value: V, weight: usize) {
        self.shard(&key)
            .lock()
            .expect("shard lock")
            .insert(key, value, weight);
    }

    /// Re-charges `key`'s entry at `weigh` of its current value (for a
    /// value that grew after it was inserted), refreshes its recency, and
    /// evicts LRU entries until the shard's budgets hold. An absent key —
    /// never inserted or since evicted — stays absent.
    pub fn reweigh(&self, key: &CacheKey, weigh: impl FnOnce(&V) -> usize) {
        self.shard(key)
            .lock()
            .expect("shard lock")
            .reweigh(key, weigh);
    }

    /// Aggregated counters (takes every shard lock in turn).
    pub fn counters(&self) -> CacheCounters {
        let mut c = CacheCounters::default();
        for shard in &self.shards {
            let s = shard.lock().expect("shard lock");
            c.entries += s.map.len() as u64;
            c.bytes += s.bytes as u64;
            c.evictions += s.evictions;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u64) -> CacheKey {
        CacheKey {
            cost_fp: k,
            cfg_fp: !k,
        }
    }

    fn single_shard(capacity: usize, bytes: usize) -> ShardedCache<u64> {
        ShardedCache::new(&CacheConfig {
            shards: 1,
            capacity,
            bytes_budget: bytes,
        })
    }

    #[test]
    fn lru_evicts_cold_entries_under_entry_cap() {
        let cache = single_shard(3, usize::MAX);
        for k in 0..3 {
            cache.insert(key(k), k, 1);
        }
        // Touch 0 so 1 is now the LRU victim.
        assert_eq!(cache.get(&key(0)), Some(0));
        cache.insert(key(3), 3, 1);
        assert_eq!(cache.get(&key(1)), None, "LRU entry must be evicted");
        for k in [0, 2, 3] {
            assert_eq!(cache.get(&key(k)), Some(k));
        }
        let c = cache.counters();
        assert_eq!((c.entries, c.evictions), (3, 1));
    }

    #[test]
    fn bytes_budget_evicts_by_weight_not_count() {
        let cache = single_shard(usize::MAX, 100);
        cache.insert(key(0), 0, 40);
        cache.insert(key(1), 1, 40);
        // 40 + 40 + 40 > 100: inserting 2 must push out the LRU (0).
        cache.insert(key(2), 2, 40);
        assert_eq!(cache.get(&key(0)), None);
        assert_eq!(cache.counters().bytes, 80);
        // An entry heavier than the whole budget still gets cached
        // (alone), instead of thrashing.
        cache.insert(key(3), 3, 500);
        assert_eq!(cache.get(&key(3)), Some(3));
        assert_eq!(cache.counters().entries, 1);
    }

    #[test]
    fn reinsert_refreshes_value_weight_and_recency() {
        let cache = single_shard(2, usize::MAX);
        cache.insert(key(0), 0, 10);
        cache.insert(key(1), 1, 10);
        cache.insert(key(0), 100, 25);
        assert_eq!(cache.get(&key(0)), Some(100));
        assert_eq!(cache.counters().bytes, 35);
        // 0 was refreshed, so 1 is the victim now.
        cache.insert(key(2), 2, 10);
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.get(&key(0)), Some(100));
    }

    #[test]
    fn reweigh_recharges_a_resident_entry_and_leaves_an_evicted_key_evicted() {
        let cache = single_shard(usize::MAX, 100);
        cache.insert(key(0), 0, 30);
        cache.insert(key(1), 1, 30);
        cache.reweigh(&key(0), |&v| 40 + v as usize);
        assert_eq!(cache.counters().bytes, 70);
        // Re-weighing makes 1 the most recent, so growing it past the
        // budget evicts 0.
        cache.reweigh(&key(1), |_| 80);
        assert_eq!(cache.get(&key(0)), None);
        assert_eq!(cache.counters().bytes, 80);
        cache.reweigh(&key(0), |_| unreachable!("an evicted key is not weighed"));
        let c = cache.counters();
        assert_eq!((c.entries, c.bytes, c.evictions), (1, 80, 1));
    }

    #[test]
    fn peek_does_not_perturb_recency() {
        let cache = single_shard(2, usize::MAX);
        cache.insert(key(0), 0, 1);
        cache.insert(key(1), 1, 1);
        assert_eq!(cache.peek(&key(0)), Some(0));
        // 0 is still LRU despite the peek.
        cache.insert(key(2), 2, 1);
        assert_eq!(cache.get(&key(0)), None);
        assert_eq!(cache.get(&key(1)), Some(1));
    }

    #[test]
    fn shards_split_budgets_and_sum_counters() {
        let cache: ShardedCache<u64> = ShardedCache::new(&CacheConfig {
            shards: 8,
            capacity: 64,
            bytes_budget: 8000,
        });
        for k in 0..64 {
            cache.insert(key(k), k, 100);
        }
        let c = cache.counters();
        assert!(c.entries > 0 && c.entries <= 64);
        assert_eq!(c.bytes, c.entries * 100);
    }
}
