//! Transport-level integration: the TCP listener speaks the same
//! protocol as the Unix socket (same goldens, same session machinery),
//! both listeners can serve one shared state at once, the connection cap
//! sheds with a structured frame, and idle connections are reaped with a
//! `read-timeout` frame — all without disturbing live sessions.

mod support;

use std::time::Duration;
use support::TempPath;
use xmlta_server::proto;
use xmlta_server::{Bound, Client, ServerAddr, ServerConfig, Shared};

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

type ServeHandle = std::thread::JoinHandle<Result<(), xmlta_server::ServeError>>;

fn spawn_server(
    unix: Option<&std::path::Path>,
    tcp: bool,
    config: ServerConfig,
) -> (Option<ServerAddr>, Option<ServerAddr>, ServeHandle) {
    let bound = Bound::bind(unix, tcp.then_some("127.0.0.1:0")).expect("bind");
    let tcp_addr = bound.tcp_addr().map(|a| ServerAddr::Tcp(a.to_string()));
    let unix_addr = unix.map(|p| ServerAddr::Unix(p.to_path_buf()));
    let shared = Shared::new();
    let handle = std::thread::spawn(move || bound.serve(shared, config));
    (unix_addr, tcp_addr, handle)
}

fn shutdown_via(addr: &ServerAddr) {
    let mut client = Client::connect_addr(addr).expect("shutdown connect");
    let response = client
        .roundtrip(&proto::req_shutdown(99))
        .expect("shutdown roundtrip");
    assert!(
        response.contains("\"ok\":true"),
        "shutdown acks: {response}"
    );
}

#[test]
fn tcp_serves_the_same_protocol_goldens() {
    let (_, tcp, server) = spawn_server(None, true, ServerConfig::default());
    let addr = tcp.expect("tcp bound");
    let mut client = Client::connect_addr(&addr).expect("tcp connect");
    // The same byte-exact responses the Unix-socket goldens pin.
    assert_eq!(
        client.roundtrip(&proto::req_ping(1)).unwrap(),
        r#"{"id":1,"ok":true}"#
    );
    assert_eq!(
        client.roundtrip("this is not json").unwrap(),
        r#"{"id":null,"ok":false,"error":{"code":"malformed-frame","message":"frame is not valid JSON: byte 0: expected `true`"}}"#
    );
    let handle = xmlta_server::state::handle_for_source(GOOD);
    let registered = client.roundtrip(&proto::req_register(2, GOOD)).unwrap();
    assert_eq!(
        registered,
        format!("{{\"id\":2,\"ok\":true,\"handle\":\"{handle}\"}}")
    );
    assert_eq!(
        client
            .roundtrip(&proto::req_typecheck_handle(3, &handle))
            .unwrap(),
        r#"{"id":3,"ok":true,"status":"typechecks"}"#
    );
    // An expired deadline sheds over TCP exactly like over Unix.
    assert_eq!(
        client
            .roundtrip(&proto::req_typecheck_handle_deadline(4, &handle, 0))
            .unwrap(),
        r#"{"id":4,"ok":false,"error":{"code":"deadline-exceeded","message":"deadline of 0 ms expired before execution; request shed"}}"#
    );
    let stats = client.roundtrip(&proto::req_stats(5)).unwrap();
    for field in [
        "\"conns_accepted\":",
        "\"overload_sheds\":0",
        "\"deadline_sheds\":1",
        "\"read_timeouts\":0",
    ] {
        assert!(stats.contains(field), "stats missing {field}: {stats}");
    }
    drop(client);
    shutdown_via(&addr);
    assert!(server.join().expect("no panic").is_ok());
}

#[test]
fn unix_and_tcp_listeners_share_one_state() {
    let sock = TempPath::new("transport-dual");
    let (unix, tcp, server) = spawn_server(Some(&sock), true, ServerConfig::default());
    let (unix, tcp) = (unix.unwrap(), tcp.unwrap());
    // Register over Unix; the prepared instance is shared process-wide,
    // so a TCP client re-registering the same content is a registry hit
    // (observable via `registered` staying at 1).
    let handle = xmlta_server::state::handle_for_source(GOOD);
    let mut over_unix = Client::connect_addr(&unix).expect("unix connect");
    over_unix
        .roundtrip(&proto::req_register(1, GOOD))
        .expect("register over unix");
    let mut over_tcp = Client::connect_addr(&tcp).expect("tcp connect");
    over_tcp
        .roundtrip(&proto::req_register(1, GOOD))
        .expect("register over tcp");
    let stats = over_tcp.roundtrip(&proto::req_stats(2)).unwrap();
    assert!(
        stats.contains("\"registered\":1"),
        "one shared prepared instance across transports: {stats}"
    );
    assert_eq!(
        over_tcp
            .roundtrip(&proto::req_typecheck_handle(3, &handle))
            .unwrap(),
        r#"{"id":3,"ok":true,"status":"typechecks"}"#
    );
    drop((over_unix, over_tcp));
    // A shutdown served on the TCP listener must stop the Unix accept
    // loop too (cross-listener wake) and remove the socket file.
    shutdown_via(&tcp);
    assert!(server.join().expect("no panic").is_ok());
    assert!(!sock.exists(), "socket file removed on orderly exit");
}

#[test]
fn connection_cap_sheds_with_a_structured_frame() {
    let sock = TempPath::new("transport-unix-cap");
    let config = ServerConfig {
        max_conns: 1,
        retry_after_ms: 75,
        ..ServerConfig::default()
    };
    let (unix, _, server) = spawn_server(Some(&sock), false, config);
    let addr = unix.unwrap();
    let mut held = Client::connect_addr(&addr).expect("first connect");
    held.roundtrip(&proto::req_ping(1)).expect("held ping");
    // Second connection: shed with the overloaded frame, first untouched.
    let mut shed = Client::connect_addr(&addr).expect("second connect accepted then shed");
    let frame = shed
        .roundtrip(&proto::req_ping(1))
        .expect("shed frame is readable");
    assert_eq!(
        frame,
        r#"{"id":null,"ok":false,"error":{"code":"server-overloaded","message":"connection limit of 1 reached; retry after 75 ms","retry_after_ms":75}}"#
    );
    assert_eq!(
        held.roundtrip(&proto::req_ping(2)).expect("still served"),
        r#"{"id":2,"ok":true}"#
    );
    let stats = held.roundtrip(&proto::req_stats(3)).unwrap();
    assert!(stats.contains("\"overload_sheds\":1"), "{stats}");
    // Dropping the held connection frees the slot (once its worker
    // exits); a retrying client then gets through — including shutdown.
    drop(held);
    let mut accepted = false;
    for _ in 0..100 {
        let mut retry = Client::connect_addr(&addr).expect("reconnect");
        if let Ok(r) = retry.roundtrip(&proto::req_shutdown(9)) {
            if r.contains("\"ok\":true") {
                accepted = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(accepted, "freed slot eventually accepts again");
    assert!(server.join().expect("no panic").is_ok());
}

#[test]
fn idle_connections_are_reaped_with_a_read_timeout_frame() {
    let sock = TempPath::new("transport-unix-idle");
    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(120)),
        ..ServerConfig::default()
    };
    let (unix, _, server) = spawn_server(Some(&sock), false, config);
    let addr = unix.unwrap();
    let mut idler = Client::connect_addr(&addr).expect("connect");
    idler.roundtrip(&proto::req_ping(1)).expect("ping");
    // Go silent past the timeout: the server sends the frame and closes.
    let reaped = idler.recv().expect("timeout frame is delivered");
    assert_eq!(
        reaped.as_deref(),
        Some(
            r#"{"id":null,"ok":false,"error":{"code":"read-timeout","message":"no frame in 120 ms; closing the connection"}}"#
        )
    );
    assert_eq!(idler.recv().expect("then EOF"), None);
    // A busy v2 connection is NOT idle while responses are owed; drive
    // work continuously past several timeout windows.
    let mut busy = Client::connect_addr(&addr).expect("connect");
    busy.roundtrip(&proto::req_hello_v2(0, 2, Some(4)))
        .expect("hello");
    for i in 0..6u64 {
        assert_eq!(
            busy.roundtrip(&proto::req_ping(i + 1)).expect("served"),
            format!("{{\"id\":{},\"ok\":true}}", i + 1)
        );
        std::thread::sleep(Duration::from_millis(40));
    }
    let stats = busy.roundtrip(&proto::req_stats(50)).unwrap();
    assert!(stats.contains("\"read_timeouts\":1"), "{stats}");
    drop(busy);
    shutdown_via(&addr);
    assert!(server.join().expect("no panic").is_ok());
}
