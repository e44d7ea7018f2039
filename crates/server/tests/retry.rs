//! Regression: a `server-overloaded` turn-away carrying `retry_after_ms`
//! on the client's *final* budgeted connect attempt must still be
//! honoured — the server promised capacity after the wait, so the
//! resilient client owes it one post-hint attempt instead of sleeping
//! out the hint only to report failure (or worse, never sleeping at
//! all). The fake server here turns the first connection away with a
//! hint and serves every later one, so a client whose entire attempt
//! budget is consumed by the turn-away succeeds if and only if the
//! final-attempt hint is honoured.
//!
//! A second fake server cuts a streamed `batch_bin` reply mid-stream: the
//! resilient client must replay the whole request and return the full
//! stream, never a partial one and never frames of two connections
//! stitched together.

mod support;

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::TempPath;
use xmlta_server::{proto, ResilientClient, RetryPolicy, ServerAddr};
use xmlta_service::parse_json;

const HINT_MS: u64 = 80;

/// A fake daemon: the first `turn_away` connections get an overloaded
/// frame (with the `retry_after_ms` hint) and an immediate close; later
/// connections speak just enough protocol to ack every id-bearing
/// frame. Returns the listener thread and a connection counter.
fn fake_server(sock: &Path, turn_away: usize) -> (std::thread::JoinHandle<()>, Arc<AtomicUsize>) {
    let listener = UnixListener::bind(sock).expect("bind fake server");
    let conns = Arc::new(AtomicUsize::new(0));
    let handle = {
        let conns = Arc::clone(&conns);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let n = conns.fetch_add(1, Ordering::SeqCst);
                if n < turn_away {
                    let mut stream = stream;
                    let _ = stream
                        .write_all(format!("{}\n", proto::overloaded_frame(1, HINT_MS)).as_bytes());
                    continue; // drop → close
                }
                // A served connection: ack every id until EOF, then stop
                // listening (each test uses exactly one served conn).
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut stream = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    let id = parse_json(line.trim())
                        .ok()
                        .and_then(|j| j.get("id").and_then(|v| v.as_u64()));
                    if let Some(id) = id {
                        if stream
                            .write_all(format!("{{\"id\":{id},\"ok\":true}}\n").as_bytes())
                            .is_err()
                        {
                            break;
                        }
                    }
                }
                break;
            }
        })
    };
    (handle, conns)
}

#[test]
fn final_attempt_honors_the_retry_after_hint() {
    let sock = TempPath::new("retry-unix-final-hint");
    let (server, conns) = fake_server(&sock, 1);
    // One budgeted attempt: the turn-away consumes the entire budget, so
    // only the post-hint bonus attempt can reach the served connection.
    let policy = RetryPolicy {
        attempts: 1,
        base_ms: 1,
        max_ms: 5,
        seed: 3,
    };
    let mut client = ResilientClient::new(ServerAddr::Unix(sock.to_path_buf()), policy);
    client.set_read_timeout(Some(Duration::from_secs(5)));
    let work = vec![(7u64, proto::req_ping(7))];
    let started = Instant::now();
    let answers = client
        .run(&work)
        .expect("the final-attempt hint earns one more try");
    assert!(
        started.elapsed() >= Duration::from_millis(HINT_MS),
        "the bonus attempt must wait out the server's hint first"
    );
    assert_eq!(
        answers.get(&7).map(String::as_str),
        Some("{\"id\":7,\"ok\":true}")
    );
    assert_eq!(
        conns.load(Ordering::SeqCst),
        2,
        "exactly the turn-away plus the post-hint attempt"
    );
    drop(client); // EOF ends the served connection, then the thread
    server.join().expect("fake server thread");
}

#[test]
fn persistent_overload_stays_terminal_after_one_bonus_attempt() {
    let sock = TempPath::new("retry-unix-terminal");
    // Every connection is turned away: the client must give up after its
    // budget plus exactly one post-hint bonus — a persistently
    // overloaded server must not pin it in a hint loop.
    let (server, conns) = fake_server(&sock, usize::MAX);
    let policy = RetryPolicy {
        attempts: 2,
        base_ms: 1,
        max_ms: 5,
        seed: 3,
    };
    let mut client = ResilientClient::new(ServerAddr::Unix(sock.to_path_buf()), policy);
    client.set_read_timeout(Some(Duration::from_secs(5)));
    let err = client
        .run(&[(1u64, proto::req_ping(1))])
        .expect_err("persistent overload is terminal");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert_eq!(
        conns.load(Ordering::SeqCst),
        3,
        "two budgeted attempts plus one bonus, no hint loop"
    );
    drop(server); // the listener thread blocks on accept; detach it
}

/// The streamed `batch_bin` id of the mid-stream cut test.
const STREAM_ID: u64 = 5;

/// The full streamed reply to `STREAM_ID`: `items` item frames, then the
/// closing tally.
fn stream_frames(items: usize) -> Vec<String> {
    let mut frames: Vec<String> = (0..items)
        .map(|i| {
            format!(
                "{{\"id\":{STREAM_ID},\"ok\":true,\"item\":{{\"name\":\"i{i}\",\"status\":\"typechecks\"}}}}"
            )
        })
        .collect();
    frames.push(format!(
        "{{\"id\":{STREAM_ID},\"ok\":true,\"report\":{{\"xmlta\":\"batch\",\"total\":{items}}}}}"
    ));
    frames
}

/// A fake daemon that answers `STREAM_ID` with [`stream_frames`] and acks
/// every other id-bearing frame (the `hello`). On its first connection it
/// closes the socket after `cut_after` item frames. It serves two
/// connections and returns how many it accepted.
fn cutting_stream_server(
    sock: &Path,
    items: usize,
    cut_after: usize,
) -> std::thread::JoinHandle<usize> {
    let listener = UnixListener::bind(sock).expect("bind fake server");
    std::thread::spawn(move || {
        let mut accepted = 0;
        for stream in listener.incoming().take(2) {
            let Ok(stream) = stream else { break };
            let first = accepted == 0;
            accepted += 1;
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            let mut line = String::new();
            'conn: loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let Some(id) = parse_json(line.trim())
                    .ok()
                    .and_then(|j| j.get("id").and_then(|v| v.as_u64()))
                else {
                    continue;
                };
                let reply = if id == STREAM_ID {
                    let frames = stream_frames(items);
                    if first {
                        // Cut the stream: a partial reply, then close.
                        for frame in &frames[..cut_after] {
                            let _ = stream.write_all(format!("{frame}\n").as_bytes());
                        }
                        break 'conn;
                    }
                    frames.join("\n")
                } else {
                    format!("{{\"id\":{id},\"ok\":true}}")
                };
                if stream.write_all(format!("{reply}\n").as_bytes()).is_err() {
                    break;
                }
            }
        }
        accepted
    })
}

#[test]
fn a_stream_cut_mid_reply_is_replayed_whole() {
    const ITEMS: usize = 5;
    let sock = TempPath::new("retry-unix-stream-cut");
    let server = cutting_stream_server(&sock, ITEMS, 2);
    let policy = RetryPolicy {
        attempts: 3,
        base_ms: 1,
        max_ms: 5,
        seed: 3,
    };
    let mut client = ResilientClient::new(ServerAddr::Unix(sock.to_path_buf()), policy);
    client.set_read_timeout(Some(Duration::from_secs(5)));
    let work = vec![(
        STREAM_ID,
        proto::req_batch_bin(STREAM_ID, b"xts", None, true),
    )];
    let answers = client.run(&work).expect("the replayed stream completes");
    assert_eq!(
        answers.get(&STREAM_ID),
        Some(&stream_frames(ITEMS).join("\n")),
        "the answer is the whole second stream, joined, with no partial frames"
    );
    assert_eq!(
        client.reconnects(),
        1,
        "exactly one reconnect after the cut"
    );
    drop(client); // EOF ends the second connection, then the thread
    assert_eq!(server.join().expect("fake server thread"), 2);
}
