//! Crash-chaos differential suite for the shard-fleet router: seeded
//! schedules that SIGKILL, SIGSTOP, and store-corrupt shards
//! mid-workload must leave every verdict byte-identical to a
//! single-daemon fault-free baseline, with zero client-visible errors,
//! zero panics, and a clean drain.
//!
//! Per seed:
//!
//! 1. a **baseline** daemon (in-process, fault-free, no fleet) answers
//!    the whole workload — registers as the reconnect prelude,
//!    typecheck-by-handle work, monolithic and streamed `batch_bin`;
//! 2. a 3-shard router fleet boots on a shared artifact store, a
//!    [`FleetSchedule`] derived from the seed is unleashed against it
//!    (its first event always SIGKILLs the shard the batches route to,
//!    20–80 ms in — mid-workload by construction), and the *same*
//!    workload runs through the router with a stock [`ResilientClient`];
//! 3. every response must be byte-identical per id to the baseline, the
//!    client must never have needed to reconnect (shard failure is the
//!    router's problem, not the client's), the supervisor must have
//!    respawned at least one shard, and the replacement must have
//!    adopted artifacts from the shared store (`store_hits > 0`);
//! 4. shutdown through the router must drain the fleet cleanly: the
//!    serve thread returns `Ok`, which also proves no session worker
//!    leaked or panicked and every shard exited on request.

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::TempPath;
use xmlta_server::fault::{self, FleetSchedule};
use xmlta_server::proto;
use xmlta_server::router::{route_key, Router, RouterConfig};
use xmlta_server::state::handle_for_source;
use xmlta_server::{
    Bound, Client, ResilientClient, RetryPolicy, Ring, ServerAddr, ServerConfig, Shared,
};
use xmlta_service::{encode_stream, gen, parse_instance, parse_json};

const SHARDS: usize = 3;

/// Stalls must outlive the router's link read timeout, so a frozen
/// shard actually fails requests over instead of just slowing them.
const LINK_READ_TIMEOUT: Duration = Duration::from_millis(300);
const STALL: Duration = Duration::from_millis(700);

/// Inter-round pause: stretches the workload past the last scheduled
/// fleet event (~460 ms), so chaos always lands mid-workload.
const ROUND_PAUSE: Duration = Duration::from_millis(120);
const ROUNDS: usize = 6;

/// Drains the router's fleet when the test thread unwinds before its own
/// shutdown. The serve thread still holds an `Arc<Router>` then, so the
/// router's `Drop` backstop never runs and its shard daemons would
/// outlive the test binary.
struct DrainOnUnwind(Arc<Router>);

impl Drop for DrainOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.drain_fleet();
        }
    }
}

fn tmp_dir(tag: &str) -> TempPath {
    let dir = TempPath::new(tag);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The per-seed workload: register frames as the session prelude, then
/// `ROUNDS` rounds of typecheck-by-handle work plus one monolithic and
/// one streamed `batch_bin` per round (all ids distinct across rounds).
struct Workload {
    prelude: Vec<String>,
    /// Per round: the id-keyed frames for `run`.
    rounds: Vec<Vec<(u64, String)>>,
    /// Per round: `(id, frame)` of the streamed `batch_bin`.
    streamed: Vec<(u64, String)>,
}

fn workload(seed: u64) -> Workload {
    let sources = gen::mixed_sources(12, 3, seed.wrapping_add(40)).expect("generators print");
    let prelude: Vec<String> = sources
        .iter()
        .enumerate()
        .map(|(i, (_, source))| proto::req_register(9_000 + i as u64, source))
        .collect();
    let instances: Vec<_> = sources
        .iter()
        .map(|(name, source)| (name.clone(), parse_instance(source).expect("sources parse")))
        .collect();
    let stream =
        encode_stream(instances.iter().map(|(n, i)| (n.as_str(), i))).expect("stream encodes");
    let mut rounds = Vec::new();
    let mut streamed = Vec::new();
    for round in 0..ROUNDS as u64 {
        let base = 100 * (round + 1);
        let mut work = Vec::new();
        for (i, (_, source)) in sources.iter().enumerate() {
            let id = base + i as u64;
            let handle = handle_for_source(source);
            let frame = if i % 3 == 0 {
                proto::req_typecheck_handle_deadline(id, &handle, 600_000)
            } else {
                proto::req_typecheck_handle(id, &handle)
            };
            work.push((id, frame));
        }
        let batch_id = base + 50;
        work.push((
            batch_id,
            proto::req_batch_bin(batch_id, &stream, Some(2), false),
        ));
        let stream_id = base + 51;
        streamed.push((
            stream_id,
            proto::req_batch_bin(stream_id, &stream, Some(2), true),
        ));
        rounds.push(work);
    }
    Workload {
        prelude,
        rounds,
        streamed,
    }
}

fn resilient(addr: ServerAddr, seed: u64, prelude: &[String]) -> ResilientClient {
    let policy = RetryPolicy {
        attempts: 10,
        base_ms: 10,
        max_ms: 200,
        seed,
    };
    let mut client = ResilientClient::new(addr, policy);
    client.set_pipeline(8);
    client.set_read_timeout(Some(Duration::from_secs(10)));
    for frame in prelude {
        client.push_prelude(frame.clone());
    }
    client
}

/// Runs the whole workload through `client`, pausing between rounds (so
/// a concurrent fleet schedule fires mid-workload). Returns every
/// response: plain answers by id, and the streamed frames by id.
fn run_workload(
    client: &mut ResilientClient,
    wl: &Workload,
    pause: bool,
) -> (BTreeMap<u64, String>, BTreeMap<u64, Vec<String>>) {
    let mut answers = BTreeMap::new();
    let mut streams = BTreeMap::new();
    for (round, work) in wl.rounds.iter().enumerate() {
        answers.extend(client.run(work).expect("round completes"));
        let (id, frame) = &wl.streamed[round];
        let answer = client.run(&[(*id, frame)]).expect("stream completes");
        streams.insert(*id, answer[id].split('\n').map(String::from).collect());
        if pause {
            std::thread::sleep(ROUND_PAUSE);
        }
    }
    (answers, streams)
}

/// The fault-free single-daemon transcript of `wl`.
fn baseline(seed: u64, wl: &Workload) -> (BTreeMap<u64, String>, BTreeMap<u64, Vec<String>>) {
    let sock = TempPath::new(&format!("fleet-unix-base-{seed}"));
    let shared = Shared::new();
    let config = ServerConfig {
        drain: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let bound = Bound::bind(Some(&sock), None).expect("bind baseline");
    let server = std::thread::spawn({
        let shared = Arc::clone(&shared);
        move || bound.serve(shared, config)
    });
    let mut client = resilient(ServerAddr::Unix(sock.to_path_buf()), seed, &wl.prelude);
    let result = run_workload(&mut client, wl, false);
    assert_eq!(client.reconnects(), 0, "fault-free baseline reconnected");
    let mut admin = Client::connect(&sock).expect("baseline admin");
    admin
        .roundtrip(&proto::req_shutdown(99_999))
        .expect("baseline shutdown");
    server
        .join()
        .expect("baseline thread")
        .expect("baseline drains cleanly");
    result
}

/// One shard's `stats` counter, read directly off its socket.
fn shard_counter(router: &Router, shard: usize, key: &str) -> u64 {
    let mut admin = Client::connect(router.shard_socket(shard)).expect("shard admin connect");
    let reply = admin
        .roundtrip(&proto::req_stats(0))
        .expect("shard stats roundtrip");
    parse_json(&reply)
        .expect("stats reply parses")
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("shard {shard} stats missing `{key}`: {reply}"))
}

/// One seed: fleet under chaos vs fault-free baseline.
fn fleet_round(seed: u64) {
    let wl = workload(seed);
    let (want_answers, want_streams) = baseline(seed, &wl);
    for reply in want_answers.values() {
        assert!(
            !reply.contains("\"error\""),
            "seed {seed}: baseline itself errored: {reply}"
        );
    }

    // The fleet: 3 shard daemons on one shared store.
    let store = tmp_dir(&format!("fleet-store-{seed}"));
    let runtime = tmp_dir(&format!("fleet-rt-{seed}"));
    let cfg = RouterConfig {
        shards: SHARDS,
        store: Some(store.to_path_buf()),
        shard_command: Some(vec![env!("CARGO_BIN_EXE_xmltad").to_string()]),
        runtime_dir: Some(runtime.to_path_buf()),
        link_read_timeout: LINK_READ_TIMEOUT,
        drain: Duration::from_secs(10),
        quiet: true,
        ..RouterConfig::default()
    };
    let router = Router::spawn(cfg).expect("fleet boots");
    let _drain = DrainOnUnwind(Arc::clone(&router));
    let front = TempPath::new(&format!("fleet-unix-front-{seed}"));
    let bound = Bound::bind(Some(&front), None).expect("bind router front");
    let serve = std::thread::spawn({
        let router = Arc::clone(&router);
        move || bound.serve_router(router)
    });

    // Aim the schedule's guaranteed first kill at the shard every batch
    // routes to, so an in-flight `batch_bin` really dies with it.
    let batch_shard = Ring::new(SHARDS).route(route_key(
        &proto::parse_request(&wl.rounds[0].last().expect("rounds have a batch").1, 2)
            .expect("batch frame parses")
            .op,
    ));
    let schedule = FleetSchedule::from_seed(seed, SHARDS, batch_shard, STALL);
    assert!(schedule.kills() >= 1, "every schedule kills at least once");
    let chaos = fault::unleash(
        schedule,
        Arc::clone(&router),
        Some(store.to_path_buf()),
        seed,
    );

    let started = Instant::now();
    let mut client = resilient(ServerAddr::Unix(front.to_path_buf()), seed, &wl.prelude);
    let (answers, streams) = run_workload(&mut client, &wl, true);
    let elapsed = started.elapsed();

    let killed = chaos.join().expect("chaos thread");
    assert!(
        !killed.is_empty(),
        "seed {seed}: no shard was actually SIGKILLed"
    );
    assert!(
        elapsed >= Duration::from_millis(460),
        "seed {seed}: workload finished before the last scheduled event could land"
    );

    // Differential: byte-identical per id, nothing extra, no errors.
    assert_eq!(
        answers.len(),
        want_answers.len(),
        "seed {seed}: answer count"
    );
    for (id, want) in &want_answers {
        let got = answers
            .get(id)
            .unwrap_or_else(|| panic!("seed {seed}: no response for id {id}"));
        assert_eq!(
            got, want,
            "seed {seed}: verdict for id {id} differs under fleet chaos"
        );
    }
    for (id, want) in &want_streams {
        let got = streams
            .get(id)
            .unwrap_or_else(|| panic!("seed {seed}: no streamed report for id {id}"));
        assert_eq!(
            got, want,
            "seed {seed}: streamed report for id {id} differs under fleet chaos"
        );
    }
    assert_eq!(
        client.reconnects(),
        0,
        "seed {seed}: shard failure leaked to the client as a dropped connection"
    );

    // The supervisor did its job, and the replacement cold-started warm
    // from the shared store.
    assert!(
        router.counters.shard_respawns() >= 1,
        "seed {seed}: a shard died but nothing respawned"
    );
    let respawned = killed[0];
    assert!(
        router.shard_generation(respawned) >= 2,
        "seed {seed}: killed shard {respawned} was never respawned"
    );
    assert!(
        shard_counter(&router, respawned, "store_hits") > 0,
        "seed {seed}: respawned shard {respawned} did not adopt artifacts from the shared store"
    );

    // Router-level stats must surface the fleet counters.
    let mut admin = Client::connect(&front).expect("router admin");
    let stats_reply = admin
        .roundtrip(&proto::req_stats(88_888))
        .expect("router stats");
    let stats = parse_json(&stats_reply).expect("router stats parse");
    let stats = stats.get("stats").expect("router stats object");
    for key in [
        "shards",
        "shards_reachable",
        "shard_respawns",
        "breaker_opens",
        "failovers",
    ] {
        assert!(
            stats.get(key).and_then(|v| v.as_u64()).is_some(),
            "seed {seed}: router stats missing `{key}`: {stats_reply}"
        );
    }
    assert!(
        stats
            .get("shard_respawns")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= 1,
        "seed {seed}: stats under-report respawns"
    );

    // Clean drain: shutdown through the front door; Ok proves no leaked
    // or panicked session workers and every shard exited on request.
    let ack = admin
        .roundtrip(&proto::req_shutdown(99_999))
        .expect("router shutdown");
    assert!(
        ack.contains("\"ok\":true"),
        "seed {seed}: shutdown acks: {ack}"
    );
    serve
        .join()
        .expect("router serve thread must not panic")
        .unwrap_or_else(|e| panic!("seed {seed}: fleet did not drain cleanly: {e}"));
}

#[test]
fn fleet_chaos_differential_over_seeded_schedules() {
    for seed in 0..8u64 {
        fleet_round(seed);
    }
}

/// The fixed-seed round ci.sh runs as its fleet smoke
/// (`cargo test --test fleet_chaos fleet_smoke`).
#[test]
fn fleet_smoke() {
    fleet_round(1);
}

/// Writes `chunks` to the front-end at `sock` (pausing 400 ms between
/// chunks), half-closes, and returns every byte it answers before closing.
fn raw_exchange(sock: &std::path::Path, chunks: &[&[u8]]) -> Vec<u8> {
    use std::io::{Read, Write};
    let mut stream = std::os::unix::net::UnixStream::connect(sock).expect("connect front");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("arm read timeout");
    for (i, chunk) in chunks.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(400));
        }
        stream.write_all(chunk).expect("write chunk");
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("front answers and closes");
    reply
}

/// The router answers frame-level errors byte for byte like a daemon
/// with the same frame cap: both run one frame reader and one loop.
#[test]
fn router_answers_frame_errors_exactly_like_a_daemon() {
    const MAX_FRAME: usize = 64;
    let daemon_sock = TempPath::new("fleet-parity-daemon");
    let daemon = Bound::bind(Some(&daemon_sock), None).expect("bind daemon");
    let config = ServerConfig {
        max_frame: MAX_FRAME,
        drain: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let daemon = std::thread::spawn(move || daemon.serve(Shared::new(), config));

    let runtime = tmp_dir("fleet-parity-rt");
    let router = Router::spawn(RouterConfig {
        shards: 1,
        shard_command: Some(vec![env!("CARGO_BIN_EXE_xmltad").to_string()]),
        runtime_dir: Some(runtime.to_path_buf()),
        max_frame: MAX_FRAME,
        drain: Duration::from_secs(5),
        quiet: true,
        ..RouterConfig::default()
    })
    .expect("fleet boots");
    let _drain = DrainOnUnwind(Arc::clone(&router));
    let router_sock = TempPath::new("fleet-parity-router");
    let front = Bound::bind(Some(&router_sock), None).expect("bind router front");
    let front = std::thread::spawn(move || front.serve_router(router));

    let oversized = [vec![b'x'; 2 * MAX_FRAME], b"\n".to_vec()].concat();
    // (case, chunks written 400 ms apart, what the daemon's reply holds)
    type Case<'a> = (&'a str, Vec<&'a [u8]>, &'a [&'a str]);
    let cases: [Case; 3] = [
        ("oversized frame", vec![&oversized], &["oversized-frame"]),
        (
            "non-UTF-8 frame, then a ping",
            vec![b"\xff\xfe\n{\"id\":2,\"op\":\"ping\"}\n"],
            &["malformed-frame", "{\"id\":2,\"ok\":true}\n"],
        ),
        (
            "ping split across a pause",
            vec![b"{\"id\":1,\"op\":", b"\"ping\"}\n"],
            &["{\"id\":1,\"ok\":true}\n"],
        ),
    ];
    for (name, chunks, needles) in &cases {
        let want = String::from_utf8(raw_exchange(&daemon_sock, chunks)).expect("UTF-8 reply");
        let got = String::from_utf8(raw_exchange(&router_sock, chunks)).expect("UTF-8 reply");
        for needle in *needles {
            assert!(want.contains(needle), "{name}: daemon answered {want:?}");
        }
        assert_eq!(got, want, "{name}: the router answers unlike a daemon");
    }

    for sock in [&daemon_sock, &router_sock] {
        let mut admin = Client::connect(sock).expect("admin connect");
        admin
            .roundtrip(&proto::req_shutdown(9))
            .expect("shutdown ack");
    }
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon drains cleanly");
    front
        .join()
        .expect("router thread")
        .expect("router drains cleanly");
}

/// A client may reuse one id for many `register` frames. A shard link
/// that is already connected plays the session's new prelude frames
/// before its next request; with a reused id among them it must neither
/// take the differing replies for a broken replay nor wait for an answer
/// it will never get. Either way the fault-free fleet would fail requests
/// over to another shard.
#[test]
fn a_reused_register_id_fails_no_request_over() {
    let sources = gen::mixed_sources(8, 4, 7).expect("generators print");
    let runtime = tmp_dir("fleet-reused-id-rt");
    let router = Router::spawn(RouterConfig {
        shards: 2,
        shard_command: Some(vec![env!("CARGO_BIN_EXE_xmltad").to_string()]),
        runtime_dir: Some(runtime.to_path_buf()),
        link_read_timeout: Duration::from_secs(5),
        drain: Duration::from_secs(5),
        quiet: true,
        ..RouterConfig::default()
    })
    .expect("fleet boots");
    let _drain = DrainOnUnwind(Arc::clone(&router));
    let sock = TempPath::new("fleet-reused-id-front");
    let front = Bound::bind(Some(&sock), None).expect("bind router front");
    let serve = std::thread::spawn({
        let router = Arc::clone(&router);
        move || front.serve_router(router)
    });

    // Every reply first, asserted after the drain, so a failure leaves
    // no shard process behind.
    let mut client = Client::connect(&sock).expect("connect router");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("arm read timeout");
    let mut frames = vec![proto::req_hello_v2(0, 2, None)];
    for (_, source) in &sources {
        frames.push(proto::req_register(1, source));
    }
    for (i, (_, source)) in sources.iter().enumerate() {
        frames.push(proto::req_typecheck_handle(
            10 + i as u64,
            &handle_for_source(source),
        ));
    }
    let replies: Vec<String> = frames
        .iter()
        .map(|frame| client.roundtrip(frame).expect("router answers"))
        .collect();
    let failovers = router.counters.failovers();
    let ack = client
        .roundtrip(&proto::req_shutdown(99))
        .expect("shutdown ack");
    serve
        .join()
        .expect("router serve thread must not panic")
        .expect("fleet drains cleanly");

    assert!(ack.contains("\"ok\":true"), "shutdown: {ack}");
    for reply in &replies {
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(!reply.contains("\"error\""), "{reply}");
    }
    assert_eq!(failovers, 0, "a fault-free fleet failed requests over");
}
