//! Direct unit coverage for [`xmlta_service::lru::Lru`] and the result
//! memo's eviction accounting — previously only exercised indirectly
//! through the batch driver and server.

use std::sync::Arc;
use xmlta_service::lru::Lru;
use xmlta_service::{
    check_instance, check_instance_keyed, fingerprint_instance, parse_instance, ItemStatus,
    SchemaCache,
};

#[test]
fn eviction_follows_recency_exactly() {
    let mut lru = Lru::new(3);
    for k in 1..=3u32 {
        assert!(lru.insert(k, k * 10).is_none());
    }
    // Recency now 1 < 2 < 3. Touch 1 (oldest becomes 2), then get_mut 2
    // (oldest becomes 3): every access kind must count as a use.
    assert_eq!(lru.get(&1), Some(&10));
    *lru.get_mut(&2).expect("hit") += 1;
    assert_eq!(lru.insert(4, 40), Some((3, 30)), "3 is least recent");
    assert_eq!(lru.insert(5, 50), Some((1, 10)), "then 1");
    assert_eq!(lru.insert(6, 60), Some((2, 21)), "then the mutated 2");
    assert_eq!(lru.evictions(), 3);
    assert_eq!(lru.len(), 3);
    let mut live: Vec<u32> = lru.iter().map(|(k, _)| *k).collect();
    live.sort_unstable();
    assert_eq!(live, vec![4, 5, 6]);
}

#[test]
fn misses_do_not_perturb_recency() {
    let mut lru = Lru::new(2);
    lru.insert("a", 1);
    lru.insert("b", 2);
    assert_eq!(lru.get(&"zzz"), None, "miss");
    assert_eq!(lru.get_mut(&"zzz"), None, "miss");
    // "a" is still the oldest: a miss must not have bumped anything.
    assert_eq!(lru.insert("c", 3), Some(("a", 1)));
}

#[test]
fn capacity_one_holds_exactly_the_latest() {
    let mut lru = Lru::new(1);
    assert!(lru.insert(1, "one").is_none());
    assert_eq!(lru.insert(2, "two"), Some((1, "one")));
    assert_eq!(lru.insert(3, "three"), Some((2, "two")));
    assert_eq!(lru.len(), 1);
    assert_eq!(lru.get(&3), Some(&"three"));
    assert_eq!(lru.get(&1), None);
    assert_eq!(lru.evictions(), 2);
    // Replacing the sole key evicts nothing.
    assert!(lru.insert(3, "still three").is_none());
    assert_eq!(lru.evictions(), 2);
}

#[test]
fn capacity_zero_is_inert() {
    let mut lru: Lru<u8, u8> = Lru::new(0);
    for k in 0..10 {
        assert!(lru.insert(k, k).is_none(), "inserts are dropped");
    }
    assert!(lru.is_empty());
    assert_eq!(lru.len(), 0);
    assert_eq!(lru.capacity(), 0);
    assert_eq!(lru.evictions(), 0, "dropped inserts are not evictions");
    assert_eq!(lru.get(&1), None);
    assert_eq!(lru.iter().count(), 0);
}

#[test]
fn replacement_updates_value_without_eviction() {
    let mut lru = Lru::new(2);
    lru.insert(1, "a");
    lru.insert(2, "b");
    assert!(lru.insert(1, "a2").is_none());
    assert_eq!(lru.len(), 2);
    assert_eq!(lru.get(&1), Some(&"a2"));
    // The replacement counted as a use: 2 is now the eviction victim.
    assert_eq!(lru.insert(3, "c"), Some((2, "b")));
}

#[test]
fn interleaved_workload_stays_bounded_and_consistent() {
    // A deterministic mixed get/insert workload; the map must never
    // exceed its capacity and hits must always return the last value.
    let cap = 8usize;
    let mut lru = Lru::new(cap);
    let mut inserted = 0u64;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for step in 0..2_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let key = state % 32;
        if step % 3 == 0 {
            if let Some(v) = lru.get(&key) {
                assert_eq!(*v, key * 2, "stale value for key {key}");
            }
        } else {
            lru.insert(key, key * 2);
            inserted += 1;
        }
        assert!(lru.len() <= cap, "len {} over capacity {cap}", lru.len());
    }
    assert!(lru.evictions() > 0 && lru.evictions() < inserted);
}

/// The memo layer over the LRU: eviction counters must surface through
/// [`SchemaCache::stats`] — the same counters the server's `stats` op
/// reports as `memo_evictions`.
#[test]
fn memo_eviction_counters_reach_stats() {
    let cache = SchemaCache::with_memo_capacity(2);
    let sources: Vec<String> = (0..5u64)
        .map(|v| xmlta_service::gen::layered_source(13, 2, 2, v).expect("prints"))
        .collect();
    for source in &sources {
        let instance = Arc::new(parse_instance(source).expect("parses"));
        let _ = check_instance(&instance, Some(&cache));
    }
    let stats = cache.stats();
    assert_eq!(stats.memo_misses, 5, "5 distinct instances: {stats:?}");
    assert_eq!(
        stats.memo_evictions, 3,
        "capacity 2 must evict 3 of 5: {stats:?}"
    );
    let (len, cap) = cache.memo_len();
    assert_eq!((len, cap), (2, 2));

    // A re-check of the most recent instance is a hit (no new eviction); a
    // re-check of an evicted one recomputes and evicts again.
    let recent = Arc::new(parse_instance(&sources[4]).expect("parses"));
    let _ = check_instance(&recent, Some(&cache));
    assert_eq!(cache.stats().memo_hits, 1);
    assert_eq!(cache.stats().memo_evictions, 3);
    let evicted = Arc::new(parse_instance(&sources[0]).expect("parses"));
    let fresh = check_instance(&evicted, Some(&cache));
    assert_eq!(cache.stats().memo_evictions, 4);
    assert_eq!(
        fresh,
        check_instance(&evicted, None),
        "re-computed verdict agrees with the uncached engine"
    );
}

/// Two structurally different members of one generator family.
fn two_instances() -> (String, String) {
    let a = xmlta_service::gen::layered_source(13, 2, 2, 0).expect("prints");
    let b = xmlta_service::gen::layered_source(13, 2, 2, 1).expect("prints");
    assert_ne!(a, b);
    (a, b)
}

/// A forged collision: an instance probed under another instance's key
/// must miss — neither the lookup nor an insert may let it near the
/// occupant's verdict — and the occupant keeps its slot.
#[test]
fn memo_collision_under_an_occupied_key_misses() {
    let (a, b) = two_instances();
    let a = Arc::new(parse_instance(&a).expect("parses"));
    let b = Arc::new(parse_instance(&b).expect("parses"));
    let cache = SchemaCache::new();
    let key = fingerprint_instance(&a);
    let forged = ItemStatus::Error {
        message: "the occupant's verdict".to_string(),
    };
    cache.memo_insert(key, &a, &forged);

    assert_eq!(cache.memo_lookup(key, &b), None, "a colliding probe misses");
    assert_eq!(cache.stats().memo_misses, 1);
    // Checking `b` under the forged key computes its own verdict...
    let status = check_instance_keyed(&b, Some(key), Some(&cache));
    assert_eq!(status, check_instance(&b, None));
    // ...and its insert leaves the occupant alone.
    assert_eq!(cache.memo_lookup(key, &a), Some(forged));
    assert_eq!(cache.memo_lookup(key, &b), None);
}

/// A registered instance checked with its carried key and an inline
/// source of the same content (parsed afresh into a distinct `Arc`, key
/// computed per call) share one memo entry: the registered instance
/// re-hits by identity, and the inline check is a counted hit through
/// structural verification.
#[test]
fn inline_source_hits_the_verdict_of_registered_content() {
    let (source, _) = two_instances();
    let registered = Arc::new(parse_instance(&source).expect("parses"));
    let key = fingerprint_instance(&registered);
    let cache = SchemaCache::new();
    let by_handle = check_instance_keyed(&registered, Some(key), Some(&cache));
    let again = check_instance_keyed(&registered, Some(key), Some(&cache));
    assert_eq!(
        cache.stats().memo_hits,
        1,
        "the registered instance re-hits"
    );
    let inline = Arc::new(parse_instance(&source).expect("parses"));
    assert_eq!(check_instance(&inline, Some(&cache)), by_handle);
    assert_eq!(again, by_handle);
    let stats = cache.stats();
    assert_eq!((stats.memo_hits, stats.memo_misses), (2, 1), "{stats:?}");
}
