//! Concurrent stress test for the sharded LRU cache (loom-free: plain
//! threads, high contention, deterministic per-key canonical values).
//!
//! The invariant under test is *result consistency*: the cache may evict
//! whatever it likes under churn, but a hit must always return exactly
//! the value that belongs to that key — never a torn value, never
//! another key's result, and never a value that aliases across the
//! engine dimension of the key (exact vs ANN entries must stay
//! separate even when node/k/θ coincide).

use galign_serve::cache::{CachedHits, QueryKey, ShardedCache};
use galign_serve::topk::{Backend, Hit, Plan, QuantMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 20_000;
const KEYSPACE: usize = 256;
const CAPACITY: usize = 64; // far below KEYSPACE: constant eviction churn

/// The one legitimate value of a key — any hit must return exactly this.
/// The engine flag flips the scores so exact/ANN aliasing is detectable,
/// and the node id is woven into every field so cross-key mixups are too.
fn canonical(node: usize, k: usize, ann: bool) -> CachedHits {
    let flip = if ann { -1.0 } else { 1.0 };
    Arc::new(
        (0..k)
            .map(|i| Hit {
                target: node * 1000 + i,
                score: flip * (node as f64 + i as f64 / 16.0),
            })
            .collect::<Vec<_>>(),
    )
}

fn make_key(node: usize, ann: bool) -> (QueryKey, CachedHits) {
    let k = 1 + node % 7;
    // A third of the keyspace carries a θ override; bit-exact θ equality
    // is part of key identity.
    let theta = [0.5, 0.25 + node as f64 / KEYSPACE as f64];
    let plan = Plan {
        ann: ann.then_some(Backend::Hnsw),
        quant: QuantMode::Off,
    };
    let key = if node.is_multiple_of(3) {
        QueryKey::new(node, k, Some(&theta), plan, 0)
    } else {
        QueryKey::new(node, k, None, plan, 0)
    };
    (key, canonical(node, k, ann))
}

/// xorshift64* per-thread op stream.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

#[test]
fn concurrent_hits_always_return_the_canonical_value() {
    let cache = ShardedCache::new(CAPACITY, 4);
    let observed_hits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let observed_hits = &observed_hits;
            scope.spawn(move || {
                let mut rng = 0x5eed_0000 + t as u64;
                for _ in 0..OPS_PER_THREAD {
                    let r = next(&mut rng);
                    let node = (r % KEYSPACE as u64) as usize;
                    let ann = r & (1 << 40) != 0;
                    let (key, want) = make_key(node, ann);
                    if r & (1 << 41) != 0 {
                        cache.insert(key, Arc::clone(&want));
                    } else if let Some(got) = cache.get(&key) {
                        observed_hits.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "hit for node {node} (ann={ann}) returned a foreign value"
                        );
                    }
                }
            });
        }
    });
    // Sanity on the workload itself: with a 256-key space over a 64-entry
    // cache and ~80k gets, a churn-free run would be suspicious. The
    // invariant above is the real assertion; this guards against the
    // test silently degenerating (e.g. all gets missing).
    let (hits, misses) = cache.stats();
    assert_eq!(
        observed_hits.load(Ordering::Relaxed),
        hits,
        "every observed hit must be counted"
    );
    assert!(hits > 0, "stress produced no hits: nothing was verified");
    assert!(misses > 0, "stress produced no misses: no eviction churn");
    assert!(
        cache.len() <= CAPACITY.div_ceil(4) * 4,
        "cache grew past its sharded capacity: {}",
        cache.len()
    );
}

#[test]
fn exact_and_ann_entries_never_alias() {
    // Same node/k/θ, different engine route: both entries must coexist
    // and each get must see its own engine's value.
    let cache = ShardedCache::new(CAPACITY, 2);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let cache = &cache;
            scope.spawn(move || {
                let ann = t % 2 == 0;
                for round in 0..5_000 {
                    let node = round % 8;
                    let (key, want) = make_key(node, ann);
                    cache.insert(key.clone(), Arc::clone(&want));
                    let got = cache.get(&key).expect("just inserted, capacity > keyspace");
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "engine route leaked between cache entries (ann={ann})"
                    );
                }
            });
        }
    });
    // Both routes of node 0 are present as distinct entries.
    let (exact_key, exact_want) = make_key(0, false);
    let (ann_key, ann_want) = make_key(0, true);
    assert_ne!(exact_key, ann_key);
    assert_eq!(
        cache.get(&exact_key).expect("exact entry").as_slice(),
        exact_want.as_slice()
    );
    assert_eq!(
        cache.get(&ann_key).expect("ann entry").as_slice(),
        ann_want.as_slice()
    );
}
