//! Clients: a minimal transport-level [`Client`] and a fault-tolerant
//! [`ResilientClient`] with reconnect, backoff, and replay.
//!
//! [`Client`] is transport-level by design: callers build request frames
//! with the constructors in [`crate::proto`] and read response lines
//! back, either strictly ([`Client::roundtrip`]) or pipelined
//! ([`Client::send`] many, then [`Client::recv`] as many). On a v1
//! connection the server answers every frame in order, so pipelining
//! needs no correlation logic — but keep the window bounded (a few dozen
//! frames): the v1 server writes responses synchronously, so a client
//! that writes unboundedly without reading deadlocks once the response
//! direction's socket buffer fills. After a `hello` negotiates protocol
//! 2, responses arrive in *completion* order (correlate by `id`), and
//! the server's reader keeps draining frames while a dedicated writer
//! catches up — a v2 connection absorbs arbitrarily deep pipelining
//! without deadlock.
//!
//! Every id-correlated exchange — the CLI's, every [`ResilientClient`]
//! run, and the router's shard links — goes through one driver,
//! [`Client::exchange`]: it keeps a window of requests in flight and
//! records each answer by its echoed id. A frame that carries a work id
//! *and* an `item` field belongs to a streamed `batch_bin` reply: it is
//! buffered, and the id is answered by its first frame without `item`,
//! the answer being all of the id's frames joined by `\n`. A streamed
//! batch is therefore one ordinary work item. Frames without a work id
//! are noise and are skipped: a torn-frame `malformed-frame` error or a
//! `read-timeout` notice describes the transport, not any request, and
//! on a router's long-lived shard link a stale notice must never become
//! some later client request's answer.
//!
//! [`ResilientClient`] layers one reconnect loop on top: jittered
//! exponential backoff on connect and reconnect, a *prelude* of
//! registration frames re-sent on every (re)connect (handles are
//! session-scoped), and replay of unanswered requests after a drop.
//! Replay is safe because verdicts depend only on content: re-asking the
//! same request yields the same answer, and the driver asserts exactly
//! that whenever it sees an id answered twice. A partial stream lives
//! only inside one connection's exchange, so a drop replays the whole
//! streamed request rather than stitching frames across connections.

use crate::net::Stream;
use crate::session::{read_raw, Raw};
use std::collections::BTreeMap;
use std::io::{BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;
use xmlta_service::{parse_json, Json};

/// A server endpoint on either transport.
#[derive(Debug, Clone)]
pub enum ServerAddr {
    /// A Unix socket path.
    Unix(PathBuf),
    /// A TCP `host:port` address.
    Tcp(String),
}

impl ServerAddr {
    pub(crate) fn connect(&self) -> std::io::Result<Stream> {
        Ok(match self {
            ServerAddr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            ServerAddr::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                let _ = stream.set_nodelay(true);
                Stream::Tcp(stream)
            }
        })
    }
}

impl std::fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            ServerAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A connected client.
pub struct Client {
    stream: Stream,
    reader: BufReader<Stream>,
    max_frame: usize,
}

impl Client {
    /// Connects to the server socket at `path`.
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        Client::connect_addr(&ServerAddr::Unix(path.to_path_buf()))
    }

    /// Connects to `addr` on either transport.
    pub fn connect_addr(addr: &ServerAddr) -> std::io::Result<Client> {
        let stream = addr.connect()?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            max_frame: crate::proto::DEFAULT_MAX_FRAME,
        })
    }

    /// Caps the size of response frames [`Client::recv`] will buffer —
    /// the client-side mirror of the server's max-frame limit, so a
    /// corrupt or hostile response can't balloon client memory.
    pub fn set_max_frame(&mut self, max_frame: usize) {
        self.max_frame = max_frame;
    }

    /// Arms (or clears) a read timeout: a [`Client::recv`] with no
    /// response for this long fails with `WouldBlock`/`TimedOut`.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one frame (a response can be collected later with
    /// [`Client::recv`]).
    pub fn send(&mut self, frame: &str) -> std::io::Result<()> {
        self.stream.write_all(frame.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Sends many frames in large batched writes — the deep-pipelining
    /// fast path for v2 connections, where the server keeps reading while
    /// its writer catches up (on a v1 connection, only send more frames
    /// than the server can buffer responses for if you enjoy deadlocks).
    pub fn send_all<S: AsRef<str>>(&mut self, frames: &[S]) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(64 * 1024);
        for frame in frames {
            buf.extend_from_slice(frame.as_ref().as_bytes());
            buf.push(b'\n');
            if buf.len() >= 60 * 1024 {
                self.stream.write_all(&buf)?;
                buf.clear();
            }
        }
        self.stream.write_all(&buf)
    }

    /// Receives one response line, or `None` when the server closed the
    /// connection. A frame exceeding the configured cap (see
    /// [`Client::set_max_frame`]) fails with `InvalidData` without
    /// buffering the rest of it.
    pub fn recv(&mut self) -> std::io::Result<Option<String>> {
        let mut buf = Vec::new();
        let problem = match read_raw(&mut self.reader, self.max_frame, &mut buf)? {
            Raw::Eof => return Ok(None),
            Raw::Ready => match String::from_utf8(buf) {
                Ok(frame) => return Ok(Some(frame)),
                Err(_) => "response frame is not valid UTF-8".to_string(),
            },
            Raw::Oversized => format!(
                "response frame exceeds the {} byte cap; refusing to buffer it",
                self.max_frame
            ),
        };
        Err(std::io::Error::new(ErrorKind::InvalidData, problem))
    }

    /// Sends one frame and waits for its response. If the send fails
    /// because the server already closed the connection, any parting
    /// frame it left behind (e.g. `server-overloaded` on a shed accept)
    /// is returned instead of the write error.
    pub fn roundtrip(&mut self, frame: &str) -> std::io::Result<String> {
        if let Err(e) = self.send(frame) {
            if matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ) {
                if let Ok(Some(line)) = self.recv() {
                    return Ok(line);
                }
            }
            return Err(e);
        }
        self.recv()?
            .ok_or_else(|| closed("server closed the connection before responding"))
    }

    /// The request driver: plays `work` — `(id, frame)` pairs with
    /// distinct ids — with at most `window` unanswered frames in flight,
    /// until every id has an answer in `answered`. Ids already answered
    /// are not sent again, so a caller resumes after a drop by calling
    /// this again on a fresh connection with the same map.
    ///
    /// Answers are recorded by echoed id; a frame for an id that already
    /// has an answer must repeat it byte for byte, or the exchange fails
    /// with `InvalidData`. A frame with a work id and an `item` field is
    /// buffered until the id's first frame without `item`, and the
    /// answer is all of the id's frames joined by `\n`. Frames without a
    /// work id are skipped (see the module docs).
    pub fn exchange<S: AsRef<str>>(
        &mut self,
        work: &[(u64, S)],
        window: usize,
        answered: &mut BTreeMap<u64, String>,
    ) -> std::io::Result<()> {
        let window = window.max(1);
        let mut streams: BTreeMap<u64, String> = BTreeMap::new();
        // The last skipped frame: when the server closes the connection,
        // an id-less error it sent first (e.g. `oversized-frame`) is why.
        let mut noise: Option<String> = None;
        let mut next = 0usize;
        let mut inflight = 0usize;
        while answered.len() < work.len() {
            while inflight < window && next < work.len() {
                let (id, frame) = &work[next];
                next += 1;
                if !answered.contains_key(id) {
                    self.send(frame.as_ref())?;
                    inflight += 1;
                }
            }
            if inflight == 0 {
                // Nothing in flight, yet some id unanswered: only a
                // repeated work id gets here. Waiting would hang.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "exchange work ids must be distinct",
                ));
            }
            let Some(line) = self.recv()? else {
                return Err(closed(&match noise {
                    Some(frame) => {
                        format!("server closed the connection mid-exchange after {frame}")
                    }
                    None => "server closed the connection mid-exchange".to_string(),
                }));
            };
            let Some((id, item)) =
                response_id(&line).filter(|(id, _)| work.iter().any(|(w, _)| w == id))
            else {
                noise = Some(line);
                continue;
            };
            if item {
                let frames = streams.entry(id).or_default();
                frames.push_str(&line);
                frames.push('\n');
                continue;
            }
            let answer = match streams.remove(&id) {
                Some(mut frames) => {
                    frames.push_str(&line);
                    frames
                }
                None => line,
            };
            match answered.get(&id) {
                Some(prev) if *prev != answer => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "replay for id {id} got a different response\n  first:  {prev}\n  replay: {answer}"
                        ),
                    ));
                }
                Some(_) => {} // idempotent replay: identical, drop the dup
                None => {
                    answered.insert(id, answer);
                    inflight = inflight.saturating_sub(1);
                }
            }
        }
        Ok(())
    }
}

/// The error for a connection the server closed while an answer was owed.
fn closed(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what)
}

/// Connect/reconnect retry discipline for [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Connect attempts per (re)connect before giving up (at least 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after.
    pub base_ms: u64,
    /// Backoff ceiling.
    pub max_ms: u64,
    /// Jitter seed — a fixed seed makes the whole retry schedule
    /// deterministic, which the chaos suite relies on.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base_ms: 50,
            max_ms: 2_000,
            seed: 0,
        }
    }
}

/// SplitMix64: tiny, seedable, and plenty for jitter. Kept inline so the
/// server crate stays dependency-free.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (0-based):
    /// exponential from `base_ms` capped at `max_ms`, then drawn
    /// uniformly from the upper half of that window so concurrent
    /// clients decorrelate without collapsing the backoff.
    fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_ms
            .checked_shl(attempt.min(32))
            .unwrap_or(self.max_ms)
            .min(self.max_ms)
            .max(1);
        let half = exp / 2;
        let jittered = half + splitmix64(rng) % (exp - half + 1);
        Duration::from_millis(jittered)
    }
}

/// The error recorded for a `server-overloaded` turn-away.
fn overloaded_error() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "server overloaded")
}

/// Is this I/O failure worth a reconnect-and-replay, or is it final?
fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotFound
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// A client that survives a hostile transport: jittered exponential
/// backoff on connect and reconnect, a prelude of registration frames
/// re-sent on every (re)connect, and replay of unanswered pipelined
/// work after a drop.
///
/// The caller supplies work as `(id, frame)` pairs with **distinct
/// numeric ids from 1 up** (id 0 is reserved for the `hello`; prelude
/// frames carry their own ids, which must not collide with work ids).
/// Each connection's share of the work runs through [`Client::exchange`],
/// so answers are correlated by echoed id, a streamed `batch_bin` is one
/// work item, an id answered twice must repeat its answer byte for byte
/// (a mismatch means the server broke its determinism contract and is
/// reported as `InvalidData`, never papered over), and id-less frames
/// are skipped as noise.
pub struct ResilientClient {
    addr: ServerAddr,
    policy: RetryPolicy,
    rng: u64,
    max_frame: usize,
    read_timeout: Option<Duration>,
    pipeline: usize,
    negotiate: bool,
    prelude: Vec<String>,
    conn: Option<Client>,
    reconnects: u64,
    replayed: u64,
}

impl ResilientClient {
    /// A resilient client for `addr`; call [`ResilientClient::run`] to
    /// execute work.
    pub fn new(addr: ServerAddr, policy: RetryPolicy) -> ResilientClient {
        let rng = policy.seed ^ 0xd1b5_4a32_d192_ed03;
        ResilientClient {
            addr,
            policy,
            rng,
            max_frame: crate::proto::DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
            pipeline: crate::proto::DEFAULT_PIPELINE_DEPTH,
            negotiate: true,
            prelude: Vec::new(),
            conn: None,
            reconnects: 0,
            replayed: 0,
        }
    }

    /// Caps response frame sizes (mirrors [`Client::set_max_frame`]).
    pub fn set_max_frame(&mut self, max_frame: usize) {
        self.max_frame = max_frame;
    }

    /// Client-side read timeout per response; a stall past it triggers
    /// reconnect-and-replay. `None` waits forever.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    /// Pipeline depth to request in the `hello` (the grant caps the
    /// in-flight window).
    pub fn set_pipeline(&mut self, depth: usize) {
        self.pipeline = depth.max(1);
    }

    /// Disables the automatic protocol-2 `hello` on (re)connect: each
    /// connection then opens in plain protocol-1 state, and any
    /// negotiation must ride in the prelude instead. The fleet router
    /// uses this to mirror its client's exact frame sequence onto shard
    /// links, so a shard session is byte-for-byte in the state a direct
    /// daemon session would be in.
    pub fn set_no_hello(&mut self) {
        self.negotiate = false;
    }

    /// Whether a live connection is currently held (the next
    /// [`ResilientClient::run`] will reuse it instead of dialing).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Adds a prelude frame — typically a `register` — re-sent on every
    /// (re)connect before any work, because handles are session-scoped.
    /// Registration is content-keyed and idempotent, so re-sending is
    /// free on the server side.
    pub fn push_prelude(&mut self, frame: String) {
        self.prelude.push(frame);
    }

    /// How many times the transport dropped and the client reconnected.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// How many work frames were re-sent after a drop.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Connects (with backoff), negotiates v2, and replays the prelude.
    /// A `server-overloaded` reply to the `hello` honours its
    /// `retry_after_ms` hint: the hint *replaces* the exponential delay
    /// before the next attempt (never stacks on top of it), and a hint
    /// received on the final budgeted attempt is still followed by one
    /// post-hint attempt — the server promised capacity after the wait,
    /// so sleeping it out only to report failure would waste the hint.
    fn connect(&mut self) -> std::io::Result<Client> {
        let mut last: Option<std::io::Error> = None;
        let mut hint: Option<u64> = None;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                match hint.take() {
                    Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
                    None => std::thread::sleep(self.policy.delay(attempt, &mut self.rng)),
                }
            }
            match self.try_connect() {
                Ok(client) => return Ok(client),
                Err(ConnectError::RetryAfter(ms)) => {
                    hint = Some(ms);
                    last = Some(overloaded_error());
                }
                Err(ConnectError::Io(e)) if retryable(&e) => last = Some(e),
                Err(ConnectError::Io(e)) => return Err(e),
            }
        }
        // The final attempt was turned away with a hint: one bonus
        // attempt after honouring it, then the refusal is terminal (no
        // further bonus — a persistently overloaded server must not pin
        // the client in a hint loop).
        if let Some(ms) = hint {
            std::thread::sleep(Duration::from_millis(ms));
            match self.try_connect() {
                Ok(client) => return Ok(client),
                Err(ConnectError::RetryAfter(_)) => last = Some(overloaded_error()),
                Err(ConnectError::Io(e)) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "connect failed")
        }))
    }

    fn try_connect(&mut self) -> Result<Client, ConnectError> {
        let mut client = Client::connect_addr(&self.addr).map_err(ConnectError::Io)?;
        client.set_max_frame(self.max_frame);
        client
            .set_read_timeout(self.read_timeout)
            .map_err(ConnectError::Io)?;
        if self.negotiate {
            let hello = crate::proto::req_hello_v2(0, 2, Some(self.pipeline));
            let response = client.roundtrip(&hello).map_err(ConnectError::Io)?;
            if let Ok(json) = parse_json(&response) {
                if let Some(error) = json.get("error") {
                    if error.get("code").and_then(Json::as_str)
                        == Some(crate::proto::code::SERVER_OVERLOADED)
                    {
                        let ms = error
                            .get("retry_after_ms")
                            .and_then(Json::as_u64)
                            .unwrap_or(crate::net::DEFAULT_RETRY_AFTER_MS);
                        return Err(ConnectError::RetryAfter(ms));
                    }
                }
            }
        }
        // Replay the prelude and collect one id-bearing response each.
        let mut awaited = self.prelude.len();
        client
            .send_all(&self.prelude.clone())
            .map_err(ConnectError::Io)?;
        while awaited > 0 {
            let line = client.recv().map_err(ConnectError::Io)?.ok_or_else(|| {
                ConnectError::Io(closed("server closed the connection during the prelude"))
            })?;
            if response_id(&line).is_some() {
                awaited -= 1;
            }
        }
        Ok(client)
    }

    /// Runs `work` to completion: every id gets exactly one recorded
    /// response, surviving disconnects by reconnecting (backoff) and
    /// replaying whatever was still unanswered. Returns responses keyed
    /// by id; a streamed `batch_bin`'s answer is its frames joined by
    /// `\n`. Fails only when the transport stays down past the retry
    /// budget with no progress, or on a non-retryable error.
    pub fn run<S: AsRef<str>>(
        &mut self,
        work: &[(u64, S)],
    ) -> std::io::Result<BTreeMap<u64, String>> {
        let window = self.pipeline;
        let mut answered = BTreeMap::new();
        if work.is_empty() {
            return Ok(answered); // nothing to ask: no reason to dial
        }
        self.reconnecting(
            &mut answered,
            |answered| work.len() - answered.len(),
            |conn, answered| conn.exchange(work, window, answered),
        )?;
        Ok(answered)
    }

    /// Sends one frame and returns the next response line, with
    /// reconnect-and-resend on transport failure. For frames that carry
    /// no usable numeric id (and so cannot ride the id-correlated
    /// [`ResilientClient::run`]); only sound when the caller keeps at
    /// most one such exchange in flight per connection — a fresh
    /// connection after a reconnect has nothing else in flight, so the
    /// next line is necessarily the answer.
    pub fn run_raw(&mut self, frame: &str) -> std::io::Result<String> {
        self.reconnecting(
            &mut (),
            |_| 1,
            |conn, _| {
                conn.send(frame)?;
                conn.recv()?
                    .ok_or_else(|| closed("server closed the connection before responding"))
            },
        )
    }

    /// The reconnect loop: plays `attempt` on the live connection
    /// (dialing one first when there is none) until it succeeds. A
    /// retryable failure drops the connection and tries again, replaying
    /// the `remaining(state)` frames still unanswered. A failure that
    /// answered nothing is a barren round; more barren rounds in a row
    /// than the policy's attempt budget end the run.
    fn reconnecting<S, T>(
        &mut self,
        state: &mut S,
        remaining: impl Fn(&S) -> usize,
        mut attempt: impl FnMut(&mut Client, &mut S) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut barren_rounds: u32 = 0;
        let mut dropped = false;
        loop {
            let conn = match self.conn.take() {
                Some(conn) => conn,
                None => self.connect()?,
            };
            let left = remaining(state);
            if dropped {
                self.replayed += left as u64;
            }
            match attempt(self.conn.insert(conn), state) {
                Ok(done) => return Ok(done),
                Err(e) if retryable(&e) => {
                    self.conn = None;
                    self.reconnects += 1;
                    dropped = true;
                    barren_rounds = if remaining(state) < left {
                        0
                    } else {
                        barren_rounds + 1
                    };
                    if barren_rounds > self.policy.attempts.max(1) {
                        return Err(std::io::Error::new(
                            e.kind(),
                            format!(
                                "no progress after {barren_rounds} reconnects \
                                 ({} request(s) unanswered): {e}",
                                remaining(state)
                            ),
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

enum ConnectError {
    Io(std::io::Error),
    RetryAfter(u64),
}

/// The echoed numeric id of a response frame, if it has one, and whether
/// the frame carries an `item` field (one frame of a streamed reply).
fn response_id(line: &str) -> Option<(u64, bool)> {
    let json = parse_json(line).ok()?;
    let id = json.get("id").and_then(Json::as_u64)?;
    Some((id, json.get("item").is_some()))
}
