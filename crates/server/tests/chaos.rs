//! Chaos extension of the differential suite: the daemon behind a seeded
//! fault-injection proxy must still answer every request with a
//! verdict-identical response (or a structured error the client recovers
//! from), never panic, and drain cleanly.
//!
//! Per seed × fault schedule:
//!
//! 1. a real daemon is served in-process over a Unix socket with a short
//!    read timeout (so stalls exercise the idle reaper, not just the
//!    client);
//! 2. a **fault-free baseline** run records every verdict by id through
//!    the resilient client connected directly;
//! 3. a [`FaultProxy`] with a seed-derived schedule (cuts at scripted
//!    byte offsets — torn frames and truncation — stalls past the read
//!    timeout, and 1..7-byte chunked writes) is put in front, and the
//!    same workload runs through it with reconnect + replay;
//! 4. the chaos run's responses must be **byte-identical per id** to the
//!    baseline (replay-by-id is idempotent — asserted both here and
//!    inside [`ResilientClient`] whenever an id is answered twice);
//! 5. the daemon is shut down and its serve thread joined: `Ok(())`
//!    proves no worker panicked, no worker leaked past the drain window,
//!    and no registry lock was poisoned.

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use support::TempPath;
use xmlta_server::fault::{FaultProxy, Schedule};
use xmlta_server::proto;
use xmlta_server::state::{handle_for_source, ServerCounters};
use xmlta_server::{Bound, Client, ResilientClient, RetryPolicy, ServerAddr, ServerConfig, Shared};
use xmlta_service::gen;

/// How many leading proxied connections carry a fault per schedule.
const FAULTED_CONNS: usize = 6;

/// The daemon's per-connection read timeout under test — short, so
/// stalls actually trip the idle reaper.
const SERVER_READ_TIMEOUT: Duration = Duration::from_millis(150);

/// Injected stalls run past the server timeout but stay well under the
/// client's, so both reapers see action without wedging the test.
const STALL: Duration = Duration::from_millis(250);

/// The workload: register frames ride as the reconnect prelude (handles
/// are session-scoped and registration is content-keyed idempotent);
/// typecheck-by-handle frames are the replayable work, one per source,
/// some with generous deadlines.
fn workload() -> (Vec<String>, Vec<(u64, String)>) {
    let sources = gen::mixed_sources(12, 3, 42).expect("generators print");
    let mut prelude = Vec::new();
    let mut work = Vec::new();
    for (i, (_, source)) in sources.iter().enumerate() {
        prelude.push(proto::req_register(1000 + i as u64, source));
        let id = 1 + i as u64;
        let handle = handle_for_source(source);
        let frame = if i % 3 == 0 {
            proto::req_typecheck_handle_deadline(id, &handle, 600_000)
        } else {
            proto::req_typecheck_handle(id, &handle)
        };
        work.push((id, frame));
    }
    (prelude, work)
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
    client.set_read_timeout(Some(Duration::from_secs(5)));
    for frame in prelude {
        client.push_prelude(frame.clone());
    }
    client
}

/// Which transport the daemon serves (and the fault proxy dials
/// upstream) for a chaos round. The proxy always listens on a Unix
/// socket; under [`Transport::Tcp`] every upstream byte crosses the TCP
/// stack instead, so cuts, stalls, and chunked writes exercise the TCP
/// session path end to end.
#[derive(Clone, Copy)]
enum Transport {
    Unix,
    Tcp,
}

impl Transport {
    fn tag(self) -> &'static str {
        match self {
            Transport::Unix => "unix",
            Transport::Tcp => "tcp",
        }
    }
}

/// One seed × schedule round; returns (reconnects, replayed,
/// read_timeouts) observed.
fn chaos_round(seed: u64, transport: Transport) -> (u64, u64, u64) {
    let sock = TempPath::new(&format!("chaos-{}-srv-{seed}", transport.tag()));
    let proxy_sock = TempPath::new(&format!("chaos-{}-proxy-{seed}", transport.tag()));
    let shared = Shared::new();
    let config = ServerConfig {
        read_timeout: Some(SERVER_READ_TIMEOUT),
        drain: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let bound = match transport {
        Transport::Unix => Bound::bind(Some(&sock), None).expect("bind unix socket"),
        Transport::Tcp => Bound::bind(None, Some("127.0.0.1:0")).expect("bind tcp socket"),
    };
    let upstream = match transport {
        Transport::Unix => ServerAddr::Unix(sock.to_path_buf()),
        Transport::Tcp => {
            ServerAddr::Tcp(bound.tcp_addr().expect("bound tcp has an addr").to_string())
        }
    };
    let server = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || bound.serve(shared, config))
    };

    let (prelude, work) = workload();

    // Fault-free baseline, connected directly.
    let mut direct = resilient(upstream.clone(), seed, &prelude);
    let baseline: BTreeMap<u64, String> = direct.run(&work).expect("baseline run succeeds");
    assert_eq!(baseline.len(), work.len(), "baseline answers every id");
    assert_eq!(
        direct.reconnects(),
        0,
        "the fault-free baseline must not need reconnects"
    );

    // The same workload through the fault proxy.
    let schedule = Schedule::from_seed(seed, FAULTED_CONNS, STALL);
    let proxy = FaultProxy::spawn(&proxy_sock, upstream.clone(), schedule).expect("proxy binds");
    let mut chaotic = resilient(ServerAddr::Unix(proxy_sock.to_path_buf()), seed, &prelude);
    let answers = chaotic
        .run(&work)
        .unwrap_or_else(|e| panic!("seed {seed}: chaos run failed: {e}"));
    for (id, want) in &baseline {
        let got = answers
            .get(id)
            .unwrap_or_else(|| panic!("seed {seed}: no response for id {id}"));
        assert_eq!(
            got, want,
            "seed {seed}: verdict for id {id} differs under faults"
        );
    }
    assert_eq!(
        answers.len(),
        baseline.len(),
        "seed {seed}: extra responses"
    );
    proxy.stop();

    // The fault schedule perturbs only what it targets. Cuts, stalls,
    // and chunked writes never corrupt the artifact store, never push
    // past the connection cap, and never expire the (generous)
    // deadlines — so those counters must read zero after the round.
    // Stalls *may* trip the idle reaper; `read_timeouts` is returned so
    // the suite can assert the stall faults bit at least once overall.
    let c = shared.counters();
    assert_eq!(
        shared.cache().stats().store_corrupt,
        0,
        "seed {seed}: store corruption without a store fault"
    );
    assert_eq!(
        ServerCounters::read(&c.overload_sheds),
        0,
        "seed {seed}: overload sheds without an overload schedule"
    );
    assert_eq!(
        ServerCounters::read(&c.deadline_sheds),
        0,
        "seed {seed}: deadline sheds under generous deadlines"
    );

    // Clean shutdown: the serve thread must come back Ok — no panicked
    // workers, no leaks past the drain window, locks all released.
    // First, the `stats` reply over the wire must agree with the
    // counters read directly off the shared state.
    let mut admin = Client::connect_addr(&upstream).expect("admin connect");
    let stats_reply = admin
        .roundtrip(&proto::req_stats(9998))
        .expect("stats roundtrip");
    let parsed = xmlta_service::parse_json(&stats_reply).expect("stats reply parses");
    let stats = parsed.get("stats").expect("stats reply has a stats object");
    let field = |key: &str| {
        stats
            .get(key)
            .and_then(|j| j.as_u64())
            .unwrap_or_else(|| panic!("seed {seed}: stats field `{key}` missing: {stats_reply}"))
    };
    // No connection activity happens between the reply and these reads.
    for (key, counter) in [
        ("conns_accepted", &c.conns_accepted),
        ("overload_sheds", &c.overload_sheds),
        ("deadline_sheds", &c.deadline_sheds),
        ("read_timeouts", &c.read_timeouts),
    ] {
        assert_eq!(
            field(key),
            ServerCounters::read(counter),
            "seed {seed}: `stats` disagrees with shared state on {key}"
        );
    }
    assert_eq!(field("store_corrupt"), 0, "seed {seed}");
    let observed = (
        chaotic.reconnects(),
        chaotic.replayed(),
        ServerCounters::read(&c.read_timeouts),
    );
    let response = admin
        .roundtrip(&proto::req_shutdown(9999))
        .expect("shutdown roundtrip");
    assert!(
        response.contains("\"ok\":true"),
        "shutdown acks: {response}"
    );
    let served = server.join().expect("serve thread must not panic");
    if let Err(e) = served {
        panic!("seed {seed}: daemon did not drain cleanly: {e}");
    }
    observed
}

fn chaos_differential(transport: Transport) {
    let mut total_reconnects = 0u64;
    let mut total_replayed = 0u64;
    let mut total_read_timeouts = 0u64;
    for seed in 0..8u64 {
        let (reconnects, replayed, read_timeouts) = chaos_round(seed, transport);
        total_reconnects += reconnects;
        total_replayed += replayed;
        total_read_timeouts += read_timeouts;
    }
    // Across 8 schedules the faults must actually bite: if nothing ever
    // forced a reconnect, the proxy injected no observable fault and the
    // suite tested nothing.
    assert!(
        total_reconnects > 0,
        "no schedule forced a reconnect — fault injection is inert"
    );
    assert!(
        total_replayed > 0,
        "no frames were replayed — recovery path never exercised"
    );
    // Stalls run past the server's read timeout, so across 8 schedules
    // the idle reaper must have fired at least once — and the counter
    // consistency checks inside each round prove it fired for stalls
    // only, never for overload or deadline sheds.
    assert!(
        total_read_timeouts > 0,
        "no stall tripped the idle reaper — stall injection is inert"
    );
}

#[test]
fn chaos_differential_over_seeded_fault_schedules() {
    chaos_differential(Transport::Unix);
}

#[test]
fn chaos_differential_over_tcp_transport() {
    // The same seeds and schedules, but every upstream byte crosses the
    // TCP session path (transport.rs pins TCP goldens fault-free; this
    // pins them under faults).
    chaos_differential(Transport::Tcp);
}

#[test]
fn torn_frames_yield_structured_errors_not_hangs() {
    // A connection cut mid-frame leaves the server a torn prefix. The
    // server must answer with a structured `malformed-frame` error (or
    // nothing, if the torn bytes never formed a line) and carry on — and
    // a fresh connection must find the daemon fully functional.
    let sock = TempPath::new("chaos-unix-torn");
    let shared = Shared::new();
    let config = ServerConfig {
        read_timeout: Some(SERVER_READ_TIMEOUT),
        drain: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let bound = Bound::bind(Some(&sock), None).expect("bind");
    let server = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || bound.serve(shared, config))
    };
    for cut in [3usize, 10, 17] {
        use std::io::Write as _;
        let mut raw = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        let frame = b"{\"id\": 1, \"op\": \"ping\"}\n";
        raw.write_all(&frame[..cut.min(frame.len())])
            .expect("write torn prefix");
        drop(raw); // disconnect mid-frame
    }
    let mut client = Client::connect(&sock).expect("post-torn connect");
    let pong = client
        .roundtrip(&proto::req_ping(1))
        .expect("daemon still serves after torn frames");
    assert_eq!(pong, r#"{"id":1,"ok":true}"#);
    let response = client.roundtrip(&proto::req_shutdown(2)).expect("shutdown");
    assert!(response.contains("\"ok\":true"));
    assert!(
        server.join().expect("no panic").is_ok(),
        "clean drain after torn frames"
    );
}
