//! Concurrency acceptance: N clients interleaving register/typecheck/batch
//! on one daemon must each see byte-identical responses to a 1-connection
//! run of the same script, regardless of scheduling — responses are a pure
//! function of the connection's own requests.

mod support;

use std::path::Path;
use std::sync::Arc;
use support::TempPath;
use xmlta_server::proto::{self, BatchItemReq, Target};
use xmlta_server::state::handle_for_source;
use xmlta_server::{serve_unix, Client, ServerConfig, Shared};

const GOOD: &str = "\
input dtd {
  start r
  r -> x*
  x -> eps
}
output dtd {
  start r
  r -> y*
}
transducer {
  states root q
  initial root
  (root, r) -> r(q)
  (q, x) -> y
}
";

const BAD: &str = "\
input dtd {
  start r
  r -> x x
  x -> eps
}
output dtd {
  start r
  r -> y
}
transducer {
  states root q
  initial root
  (root, r) -> r(q)
  (q, x) -> y
}
";

/// The `.xtb` encoding of a source (what `xmlta convert` would ship).
fn encode(source: &str) -> Vec<u8> {
    let instance = xmlta_service::parse_instance(source).expect("parses");
    xmlta_service::encode_instance(&instance).expect("encodes")
}

/// The scripted session every client plays: register both instances (BAD
/// twice — once textual, once as a binary `.xtb` frame), check them by
/// handle and by source, and run the same batch twice with different
/// thread counts under one id (so the two response lines must be
/// byte-identical, pinning thread-count independence inside one response).
/// Binary registration interleaves with everything else, so its handles
/// and verdicts are pinned to be scheduling-independent too.
fn script() -> Vec<String> {
    let good_handle = handle_for_source(GOOD);
    let bad_handle = handle_for_source(BAD);
    let bad_bin = encode(BAD);
    let bad_bin_handle = xmlta_server::state::handle_for_binary(&bad_bin);
    let batch_items = vec![
        BatchItemReq {
            name: "good-by-handle".into(),
            target: Target::Handle(good_handle.clone()),
        },
        BatchItemReq {
            name: "bad-by-handle".into(),
            target: Target::Handle(bad_handle.clone()),
        },
        BatchItemReq {
            name: "bad-by-binary-handle".into(),
            target: Target::Handle(bad_bin_handle.clone()),
        },
        BatchItemReq {
            name: "bad-by-source".into(),
            target: Target::Source(BAD.to_string()),
        },
        BatchItemReq {
            name: "broken".into(),
            target: Target::Source("input dtd {".to_string()),
        },
    ];
    vec![
        proto::req_hello_accepts(1, &["xti", "xtb"]),
        proto::req_register(2, GOOD),
        proto::req_register(3, BAD),
        proto::req_register_bin(3, &bad_bin),
        proto::req_typecheck_handle(4, &good_handle),
        proto::req_typecheck_handle(5, &bad_handle),
        proto::req_typecheck_handle(5, &bad_bin_handle),
        proto::req_typecheck_source(6, GOOD),
        proto::req_typecheck_handle(7, "iffffffffffffffff"),
        proto::req_batch(8, &batch_items, Some(1)),
        proto::req_batch(8, &batch_items, Some(8)),
    ]
}

/// Plays `frames` over one connection, pipelined, returning the transcript.
fn play(client: &mut Client, frames: &[String]) -> Vec<String> {
    for frame in frames {
        client.send(frame).expect("send");
    }
    frames
        .iter()
        .map(|_| client.recv().expect("recv").expect("response before EOF"))
        .collect()
}

/// Starts a daemon, returning the join handle.
fn start(path: &Path, shared: Arc<Shared>) -> std::thread::JoinHandle<()> {
    let path = path.to_path_buf();
    std::thread::spawn(move || {
        serve_unix(&path, shared, ServerConfig::default()).expect("daemon exits cleanly");
    })
}

fn wait_for_socket(path: &Path) -> Client {
    for _ in 0..200 {
        if let Ok(client) = Client::connect(path) {
            return client;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("daemon never bound {}", path.display());
}

#[test]
fn n_clients_see_byte_identical_transcripts() {
    let socket = TempPath::new("sessions-unix-concurrent");
    let shared = Shared::new();
    let daemon = start(&socket, Arc::clone(&shared));
    let frames = script();

    // Reference: one cold connection (the very first, so it also covers
    // the all-misses cache path).
    let mut reference_client = wait_for_socket(&socket);
    let reference = play(&mut reference_client, &frames);
    drop(reference_client);
    assert_eq!(reference.len(), frames.len());
    assert!(reference[0].contains("\"formats\":[\"xti\",\"xtb\"]"));
    assert!(reference[4].contains("\"status\":\"typechecks\""));
    assert!(reference[5].contains("\"status\":\"counterexample\""));
    assert_eq!(
        reference[5], reference[6],
        "equal content via text and binary handles: same verdict bytes"
    );
    assert!(reference[8].contains("unknown-handle"));
    assert_eq!(
        reference[9], reference[10],
        "same batch under one id: thread count must not leak into bytes"
    );

    // N concurrent clients, each playing the same script with per-client
    // staggering to force interleavings.
    let n = 6;
    let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let socket = &socket;
                let frames = &frames;
                scope.spawn(move || {
                    let mut client = wait_for_socket(socket);
                    std::thread::sleep(std::time::Duration::from_millis(i as u64 * 3));
                    play(&mut client, frames)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, transcript) in transcripts.iter().enumerate() {
        assert_eq!(
            transcript, &reference,
            "client {i}'s transcript differs from the 1-connection reference"
        );
    }

    // Everything landed on one registry + cache (GOOD text, BAD text,
    // BAD binary — binary content is a distinct registration).
    assert_eq!(shared.registered(), 3, "three distinct contents registered");
    let stats = shared.cache().stats();
    assert!(
        stats.schema_hits > 0,
        "concurrent sessions share the warm cache: {stats:?}"
    );

    let mut closer = wait_for_socket(&socket);
    closer
        .roundtrip(&proto::req_shutdown(99))
        .expect("shutdown");
    daemon.join().expect("daemon thread");
}

#[test]
fn shutdown_with_idle_connections_drains_cleanly() {
    // Idle open connections are closed out at shutdown — they are not
    // leaked workers, and the daemon must exit promptly and cleanly.
    let socket = TempPath::new("sessions-unix-idle");
    let daemon = start(&socket, Shared::new());
    let mut idle1 = wait_for_socket(&socket);
    let mut idle2 = wait_for_socket(&socket);
    idle2
        .roundtrip(&proto::req_ping(1))
        .expect("idle2 is live before shutdown");
    let mut closer = wait_for_socket(&socket);
    closer.roundtrip(&proto::req_shutdown(1)).expect("shutdown");
    // `start` panics inside the daemon thread if serve_unix returns an
    // error, so a clean join is the no-leaked-workers assertion.
    daemon
        .join()
        .expect("daemon drains idle connections cleanly");
    assert_eq!(idle1.recv().expect("read"), None, "idle1 sees EOF");
    assert_eq!(idle2.recv().expect("read"), None, "idle2 sees EOF");
}

#[test]
fn registered_instances_hit_the_cache_on_first_typecheck() {
    // Registration warms the shared cache with the *source-form* schema
    // products, so the very first typecheck-by-handle is all hits.
    let shared = Shared::new();
    let prepared = shared.register(GOOD).expect("parses");
    let misses_after_register = shared.cache().stats().schema_misses;
    let status = xmlta_service::check_instance(&prepared.instance, Some(shared.cache()));
    assert!(matches!(status, xmlta_service::ItemStatus::TypeChecks));
    let stats = shared.cache().stats();
    assert_eq!(
        stats.schema_misses, misses_after_register,
        "first typecheck of a registered instance must not re-compile: {stats:?}"
    );
    assert!(
        stats.schema_hits >= 2,
        "input + output schemas hit: {stats:?}"
    );
}

#[test]
fn registry_is_bounded_and_evicted_handles_keep_resolving() {
    // A capacity-2 registry: registering a third distinct content evicts
    // the least recently used one. The evicting is invisible to sessions —
    // they hold the `Arc<Prepared>` — so every handle a connection
    // registered keeps resolving, and re-registering evicted content just
    // re-parses.
    let shared = Shared::with_registry_capacity(2);
    let mut session = xmlta_server::Session::new(Arc::clone(&shared));
    let third = GOOD.replace("y*", "y* y*"); // a third distinct source
    let mut frame = |f: &str| session.handle_frame(f).0;

    let r1 = frame(&proto::req_register(1, GOOD));
    let r2 = frame(&proto::req_register(2, BAD));
    assert_eq!(shared.registered(), 2);
    assert_eq!(shared.evictions(), 0);
    let _r3 = frame(&proto::req_register(3, &third));
    assert_eq!(shared.registered(), 2, "capacity bound holds");
    assert_eq!(shared.evictions(), 1, "GOOD was least recently used");
    assert!(r1.contains("\"ok\":true") && r2.contains("\"ok\":true"));

    // The evicted GOOD handle still resolves on this session.
    let good_handle = handle_for_source(GOOD);
    let checked = frame(&proto::req_typecheck_handle(4, &good_handle));
    assert!(
        checked.contains("\"status\":\"typechecks\""),
        "evicted handle must keep resolving: {checked}"
    );

    // Re-registering evicted content returns the same (content-derived)
    // handle and evicts the new LRU victim.
    let again = frame(&proto::req_register(5, GOOD));
    assert!(again.contains(&good_handle), "handles are content-derived");
    assert_eq!(shared.registered(), 2);
    assert_eq!(shared.evictions(), 2);

    // The stats op reports both counters.
    let stats = frame(&proto::req_stats(6));
    assert!(
        stats.contains("\"evictions\":2") && stats.contains("\"memo_hits\""),
        "{stats}"
    );
}

#[test]
fn sequential_reconnects_stay_deterministic() {
    // The same script on a warm server (second, third connection) must
    // produce the cold transcript too — cache warmth must not leak.
    let socket = TempPath::new("sessions-unix-sequential");
    let daemon = start(&socket, Shared::new());
    let frames = script();
    let mut first = wait_for_socket(&socket);
    let reference = play(&mut first, &frames);
    drop(first);
    for round in 0..3 {
        let mut client = wait_for_socket(&socket);
        let transcript = play(&mut client, &frames);
        assert_eq!(transcript, reference, "round {round}");
    }
    let mut closer = wait_for_socket(&socket);
    closer.roundtrip(&proto::req_shutdown(1)).expect("shutdown");
    daemon.join().expect("daemon thread");
}
