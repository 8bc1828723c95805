//! Sharded in-memory LRU cache for top-k query results.
//!
//! Keys are `(node, k, θ)` — θ compared by exact bit pattern, so a cache
//! hit is only ever returned for the identical weighting. The store is
//! split into power-of-two shards, each behind its own mutex, so
//! concurrent workers rarely contend; within a shard, recency is an
//! intrusive doubly-linked list over a slab (`O(1)` get/insert/evict, no
//! per-operation allocation beyond the inserted value).

use crate::topk::{Hit, Plan};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one top-k query. θ is stored as raw `f64` bits: bit-exact
/// equality (the only safe cache equivalence) and hashability for free.
/// The batch's [`Plan`] is part of the key — ANN answers may legitimately
/// differ from exact ones (missed candidates), so the two must never
/// share cache entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Source node id.
    pub node: usize,
    /// Requested k (pre-clamping).
    pub k: usize,
    /// θ override as bit patterns; `None` = artifact default.
    pub theta_bits: Option<Vec<u64>>,
    /// The request's plan: the engine route (the *decision*, which is
    /// deterministic per request — not the per-node fallback outcome,
    /// which may serve exact results under an ANN key; those are at least
    /// as accurate, so sharing that direction is sound) and the effective
    /// scan precision. Exact-engine quantized scans are bit-identical to
    /// f64 scans, but ANN traversal over quantized rows may visit
    /// *different candidates* than f64 traversal, so the two must never
    /// share entries.
    pub plan: Plan,
    /// Artifact generation the entry was computed against. Hot swaps
    /// clear the cache *and* bump this: a request pinned to the old
    /// generation that finishes after the clear re-inserts under its old
    /// generation and can never poison post-swap lookups.
    pub generation: u64,
}

impl QueryKey {
    /// Builds the key of one queried node of a planned request.
    #[must_use]
    pub fn new(node: usize, k: usize, theta: Option<&[f64]>, plan: Plan, generation: u64) -> Self {
        QueryKey {
            node,
            k,
            theta_bits: theta.map(|t| t.iter().map(|v| v.to_bits()).collect()),
            plan,
            generation,
        }
    }
}

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map over a slab-backed doubly-linked list.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (0 disables it:
    /// every lookup misses and inserts are dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// The configured entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up a key, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slots[i].value)
    }

    /// Inserts (or replaces) a value, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            let old = &self.slots[lru];
            self.map.remove(&old.key);
            self.free.push(lru);
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i].key = key.clone();
                self.slots[i].value = value;
                i
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.push_front(i);
        self.map.insert(key, i);
    }

    /// Keys from most- to least-recently used (test/diagnostic helper).
    #[must_use]
    pub fn recency_order(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            out.push(self.slots[i].key.clone());
            i = self.slots[i].next;
        }
        out
    }
}

/// Cached top-k results, shared between the cache and in-flight responses.
pub type CachedHits = Arc<Vec<Hit>>;

/// The serving cache: shards of [`LruCache`] plus hit/miss counters.
pub struct ShardedCache {
    shards: Vec<Mutex<LruCache<QueryKey, CachedHits>>>,
    mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ShardedCache {
    /// Creates a cache of `capacity` total entries spread over `shards`
    /// mutexes (rounded up to a power of two; capacity 0 disables).
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(n);
        ShardedCache {
            shards: (0..n)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            mask: (n - 1) as u64,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &QueryKey) -> &Mutex<LruCache<QueryKey, CachedHits>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() & self.mask) as usize]
    }

    /// Looks up a query, counting the hit or miss.
    pub fn get(&self, key: &QueryKey) -> Option<CachedHits> {
        let got = self
            .shard(key)
            .lock()
            .expect("cache shard lock")
            .get(key)
            .cloned();
        match got {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches a computed result.
    pub fn insert(&self, key: QueryKey, value: CachedHits) {
        self.shard(&key)
            .lock()
            .expect("cache shard lock")
            .insert(key, value);
    }

    /// Drops every cached entry (hit/miss counters survive). Used when
    /// the artifact generation is hot-swapped: entries computed against
    /// the old index must never answer queries against the new one.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.lock().expect("cache shard lock");
            let capacity = guard.capacity();
            *guard = LruCache::new(capacity);
        }
    }

    /// Total cached entries across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since construction.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{Backend, QuantMode};

    fn key(node: usize) -> QueryKey {
        QueryKey::new(node, 5, None, Plan::EXACT, 0)
    }

    #[test]
    fn hit_returns_inserted_value_and_updates_recency() {
        let mut c: LruCache<QueryKey, u32> = LruCache::new(3);
        c.insert(key(1), 10);
        c.insert(key(2), 20);
        c.insert(key(3), 30);
        assert_eq!(c.get(&key(1)), Some(&10));
        // 1 is now most recent: order 1, 3, 2.
        assert_eq!(c.recency_order(), vec![key(1), key(3), key(2)]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<QueryKey, u32> = LruCache::new(2);
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        assert_eq!(c.get(&key(1)), Some(&1)); // 2 becomes LRU
        c.insert(key(3), 3);
        assert_eq!(c.get(&key(2)), None, "LRU entry must be evicted");
        assert_eq!(c.get(&key(1)), Some(&1));
        assert_eq!(c.get(&key(3)), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut c: LruCache<QueryKey, u32> = LruCache::new(2);
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        c.insert(key(1), 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key(1)), Some(&11));
        // Updating 1 refreshed it; inserting 3 evicts 2.
        c.insert(key(3), 3);
        assert_eq!(c.get(&key(2)), None);
    }

    #[test]
    fn eviction_slots_are_reused() {
        let mut c: LruCache<QueryKey, u32> = LruCache::new(2);
        for i in 0..100 {
            c.insert(key(i), i as u32);
        }
        assert_eq!(c.len(), 2);
        assert!(c.slots.len() <= 3, "slab must not grow past capacity");
        assert_eq!(c.get(&key(99)), Some(&99));
        assert_eq!(c.get(&key(98)), Some(&98));
        assert_eq!(c.get(&key(0)), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: LruCache<QueryKey, u32> = LruCache::new(0);
        c.insert(key(1), 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&key(1)), None);
    }

    #[test]
    fn theta_is_part_of_the_key_bit_exactly() {
        let a = QueryKey::new(1, 5, Some(&[0.1, 0.2]), Plan::EXACT, 0);
        let b = QueryKey::new(1, 5, Some(&[0.1, 0.2]), Plan::EXACT, 0);
        let c = QueryKey::new(1, 5, Some(&[0.1, 0.2 + 1e-17]), Plan::EXACT, 0);
        let d = QueryKey::new(1, 5, None, Plan::EXACT, 0);
        assert_eq!(a, b);
        assert_eq!(c, b, "values below f64 resolution are the same bits");
        assert_ne!(a, d);
        let e = QueryKey::new(1, 5, Some(&[0.1, 0.25]), Plan::EXACT, 0);
        assert_ne!(a, e);
    }

    #[test]
    fn plan_is_part_of_the_key() {
        let exact = QueryKey::new(1, 5, None, Plan::EXACT, 0);
        let ann = Plan {
            ann: Some(Backend::Hnsw),
            quant: QuantMode::Off,
        };
        assert_ne!(
            exact,
            QueryKey::new(1, 5, None, ann, 0),
            "ANN and exact results must never alias"
        );
        let int8 = Plan {
            quant: QuantMode::Int8,
            ..ann
        };
        let f16 = Plan {
            quant: QuantMode::F16,
            ..ann
        };
        assert_ne!(
            QueryKey::new(1, 5, None, ann, 0),
            QueryKey::new(1, 5, None, int8, 0)
        );
        assert_ne!(
            QueryKey::new(1, 5, None, int8, 0),
            QueryKey::new(1, 5, None, f16, 0)
        );
        assert_ne!(exact, QueryKey::new(1, 5, None, Plan::EXACT, 1));
    }

    #[test]
    fn sharded_cache_counts_hits_and_misses() {
        let cache = ShardedCache::new(64, 4);
        assert!(cache.is_empty());
        let hits: CachedHits = Arc::new(vec![Hit {
            target: 3,
            score: 0.5,
        }]);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), hits.clone());
        let got = cache.get(&key(1)).expect("hit");
        assert_eq!(got[0].target, 3);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sharded_clear_empties_every_shard_but_keeps_capacity() {
        let cache = ShardedCache::new(8, 4);
        for node in 0..8 {
            cache.insert(key(node), Arc::new(vec![]));
        }
        assert!(!cache.is_empty());
        cache.clear();
        assert_eq!(cache.len(), 0);
        // Still usable at the same capacity after clearing.
        for node in 0..8 {
            cache.insert(key(node), Arc::new(vec![]));
        }
        assert!(!cache.is_empty() && cache.len() <= 8);
    }

    #[test]
    fn sharded_cache_respects_total_capacity() {
        let cache = ShardedCache::new(8, 4);
        for i in 0..1000 {
            cache.insert(key(i), Arc::new(Vec::new()));
        }
        // Each of the 4 shards holds at most ceil(8/4) = 2 entries.
        assert!(cache.len() <= 8, "len {} exceeds capacity", cache.len());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(ShardedCache::new(128, 8));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let k = QueryKey::new((t * 37 + i) % 64, 5, None, Plan::EXACT, 0);
                    if c.get(&k).is_none() {
                        c.insert(k, Arc::new(Vec::new()));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 8 * 500);
    }
}
