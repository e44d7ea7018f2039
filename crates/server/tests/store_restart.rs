//! Restart-warm integration: two server "processes" (two [`Shared`]
//! states, booted in sequence) mounted on the same on-disk artifact
//! store. The first boot compiles everything and writes the store; the
//! second boots with a cold in-memory cache but adopts every compiled
//! artifact from disk — byte-identical responses, `store_hits > 0`, and
//! zero recompilation (`store_writes == 0`, `store_corrupt == 0`).

mod support;

use std::io::Cursor;
use std::sync::Arc;
use support::TempPath;
use xmlta_server::{proto, serve_stream, Session, Shared};
use xmlta_service::{encode_stream, gen, parse_instance, ArtifactBackend};
use xmlta_store::Store;

/// The session script both boots play: registrations, typechecks by
/// handle and by source, and a binary batch. Deliberately no `stats`
/// frame — the store counters differ across boots by design, and the
/// transcripts must stay byte-identical.
fn script() -> Vec<String> {
    let sources = gen::mixed_sources(10, 2, 7).expect("generators print");
    let mut frames = vec![proto::req_hello(0)];
    for (i, (_, source)) in sources.iter().enumerate() {
        frames.push(proto::req_register(100 + i as u64, source));
        frames.push(proto::req_typecheck_source(200 + i as u64, source));
    }
    let fleet: Vec<_> = sources
        .iter()
        .map(|(name, source)| (name.clone(), parse_instance(source).expect("parses")))
        .collect();
    let stream = encode_stream(fleet.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    frames.push(proto::req_batch_bin(300, &stream, Some(2), false));
    frames
}

/// Boots a fresh server state on `store` and plays the script through an
/// in-memory connection; returns the full response transcript.
fn boot_and_run(store: Arc<Store>) -> (String, xmlta_service::cache::CacheStats) {
    let shared = Shared::with_store(64, 64, Some(store as Arc<dyn ArtifactBackend>));
    let mut session = Session::new(Arc::clone(&shared));
    let input = script().join("\n") + "\n";
    let mut out: Vec<u8> = Vec::new();
    serve_stream(
        &mut session,
        Cursor::new(input.into_bytes()),
        &mut out,
        1 << 22,
    )
    .expect("in-memory IO cannot fail");
    let transcript = String::from_utf8(out).expect("responses are UTF-8");
    (transcript, shared.cache().stats())
}

#[test]
fn second_boot_on_a_populated_store_is_warm_and_verdict_identical() {
    let root = TempPath::new("restart-store-warm");

    // Boot 1: empty store — everything misses, compiles, writes behind.
    let store = Arc::new(Store::open(root.to_path_buf()).expect("store opens"));
    let (first, cold) = boot_and_run(store);
    assert!(cold.store_writes > 0, "first boot populated the store");
    assert_eq!(cold.store_hits, 0, "nothing to adopt on an empty store");
    assert_eq!(cold.store_corrupt, 0, "no corruption on a fresh store");

    // Boot 2: a brand-new Shared (cold memory) on the same directory.
    let store = Arc::new(Store::open(root.to_path_buf()).expect("store reopens"));
    let (second, warm) = boot_and_run(store);
    assert_eq!(
        second, first,
        "restart on a populated store changed a response byte"
    );
    assert!(warm.store_hits > 0, "second boot adopted from the store");
    assert_eq!(
        warm.store_writes, 0,
        "second boot recompiled something it should have adopted"
    );
    assert_eq!(warm.store_corrupt, 0, "populated store read back corrupt");

    // Boot 3: same directory again, after a gc generous enough to keep
    // everything — still warm, still identical.
    let store = Arc::new(Store::open(root.to_path_buf()).expect("store reopens"));
    let report = store.gc(u64::MAX).expect("gc walks the store");
    assert_eq!(report.removed, 0, "generous gc evicted nothing");
    let (third, regc) = boot_and_run(store);
    assert_eq!(third, first, "gc'd store changed a response byte");
    assert!(regc.store_hits > 0);
    assert_eq!(regc.store_writes, 0);
}
