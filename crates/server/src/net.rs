//! Transports: the one connection core both front-ends serve through
//! (Unix *and* TCP listeners), and the stdio single-session mode.
//!
//! A [`Bound`] serves a `Front`: the daemon's [`crate::state::Shared`]
//! state ([`Bound::serve`]), or the router's shard fleet
//! ([`Bound::serve_router`]). The core is thread-per-connection; each
//! accepted stream gets a frame handler from its front — a
//! [`Session`], or the router's relay — driven by the one sequential
//! frame loop in [`crate::session::serve_stream`], so the frame grammar,
//! goldens, and per-connection determinism are transport- and
//! front-independent. A `shutdown` request (from any connection, on any
//! transport) stops every accept loop, and the server then *drains*: it
//! waits up to [`ServerConfig::drain`] for every connection worker to
//! finish. Workers still running (or panicked) after the drain window are
//! reported as an error so the process exits nonzero — a leaked worker is
//! a bug, not a shrug.
//!
//! # Robustness layer
//!
//! * **Read/idle timeout** ([`ServerConfig::read_timeout`]): armed on
//!   every accepted stream; a connection that produces no frame within the
//!   window is answered with a `read-timeout` error frame and closed. On a
//!   pipelined connection the timeout only fires when nothing is in
//!   flight — a client quietly waiting for its own responses is not idle.
//! * **Connection cap** ([`ServerConfig::max_conns`]): accepts beyond the
//!   cap are shed immediately with a one-frame `server-overloaded` reply
//!   carrying a `retry_after_ms` hint; live sessions are never affected.
//! * **Transient accept errors** are retried; only a listener failing
//!   100 times in a row takes the server down.
//! * All of these are tallied in [`crate::state::ServerCounters`] (the
//!   daemon's `stats` op surfaces them).

use crate::client::ServerAddr;
use crate::session::{serve_stream, Handler, Session, SessionEnd};
use crate::state::{ServerCounters, Shared};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xmlta_base::FxHashMap;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum frame size in bytes.
    pub max_frame: usize,
    /// How long shutdown waits for in-flight connections to finish.
    pub drain: Duration,
    /// Cap on the per-connection pipeline depth a v2 `hello` may request.
    pub pipeline_depth: usize,
    /// Per-connection read/idle timeout: a connection producing no frame
    /// for this long is closed with a `read-timeout` error frame. `None`
    /// disables the timeout (stdio sessions always run without one).
    pub read_timeout: Option<Duration>,
    /// Cap on concurrently served connections; accepts beyond it are shed
    /// with a `server-overloaded` frame and closed.
    pub max_conns: usize,
    /// The `retry_after_ms` hint carried by the overload shed frame.
    pub retry_after_ms: u64,
}

/// Default per-connection read/idle timeout (5 minutes).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(300);

/// Default cap on concurrently served connections.
pub const DEFAULT_MAX_CONNS: usize = 1024;

/// Default `retry_after_ms` hint on overload sheds.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_frame: crate::proto::DEFAULT_MAX_FRAME,
            drain: Duration::from_secs(10),
            pipeline_depth: crate::proto::DEFAULT_PIPELINE_DEPTH,
            read_timeout: Some(DEFAULT_READ_TIMEOUT),
            max_conns: DEFAULT_MAX_CONNS,
            retry_after_ms: DEFAULT_RETRY_AFTER_MS,
        }
    }
}

/// Why the daemon loop failed.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or accepting on a socket failed.
    Io(std::io::Error),
    /// Workers still running after the drain window.
    LeakedWorkers(usize),
    /// A connection worker panicked (outside per-request isolation).
    WorkerPanicked(usize),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::LeakedWorkers(n) => {
                write!(f, "{n} connection worker(s) leaked past the drain window")
            }
            ServeError::WorkerPanicked(n) => write!(f, "{n} connection worker(s) panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Serves a single session over stdin/stdout (the `--stdio` mode): the
/// same protocol with the process as the connection. Returns on EOF,
/// `shutdown`, or an oversized frame. The handles stay unlocked (locked
/// handles cannot cross into the pipelined loop's reader thread); the
/// process is the only user of its stdio anyway. Read timeouts do not
/// apply (stdio cannot arm one).
pub fn serve_stdio(shared: Arc<Shared>, config: &ServerConfig) -> std::io::Result<SessionEnd> {
    // Record spans (ring + histograms) whenever we serve, so the v2
    // `trace` op and the stats histograms always have data.
    xmlta_obs::enable();
    let mut session = Session::new(shared);
    session.set_pipeline_cap(config.pipeline_depth);
    serve_stream(
        &mut session,
        BufReader::new(std::io::stdin()),
        BufWriter::new(std::io::stdout()),
        config.max_frame,
    )
}

/// A connected stream on either transport.
pub enum Stream {
    /// A Unix-socket connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// Duplicates the handle (shared open file description — a read
    /// timeout armed on either copy governs both).
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Arms (or clears) `SO_RCVTIMEO` on the underlying socket.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    pub(crate) fn shutdown_both(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// One bound listener.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }

    /// Where a shutdown nudge connects to wake this listener's accept.
    fn wake_addr(&self) -> std::io::Result<ServerAddr> {
        Ok(match self {
            Listener::Unix(l) => ServerAddr::Unix(
                l.local_addr()?
                    .as_pathname()
                    .expect("bound to a socket path")
                    .to_path_buf(),
            ),
            Listener::Tcp(l) => {
                // An unspecified bind address is not connectable; nudge
                // through loopback on the same port.
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                ServerAddr::Tcp(addr.to_string())
            }
        })
    }
}

/// What a [`Bound`] serves: a front opens one frame handler per accepted
/// connection, and holds the tallies the core counts into.
pub(crate) trait Front: Send + Sync + 'static {
    /// The per-connection handler.
    type Handler: Handler;
    /// Where the core tallies accepts and sheds.
    fn counters(&self) -> &ServerCounters;
    /// The handler for connection number `conn` (1-based, unique per
    /// [`Bound`]), honouring `config`'s per-connection settings.
    fn open(front: &Arc<Self>, conn: u64, config: &ServerConfig) -> Self::Handler;
}

impl Front for Shared {
    type Handler = Session;

    fn counters(&self) -> &ServerCounters {
        Shared::counters(self)
    }

    fn open(shared: &Arc<Shared>, conn: u64, config: &ServerConfig) -> Session {
        let mut session = Session::new(Arc::clone(shared));
        session.set_conn(conn);
        session.set_pipeline_cap(config.pipeline_depth);
        session.set_read_timeout(config.read_timeout);
        session
    }
}

/// State shared by every accept loop and connection worker of one server.
struct ServeCtx {
    shutdown: AtomicBool,
    /// Open connections by id, so shutdown can close them out from under
    /// workers blocked in a read — an *idle* connection must not be
    /// mistaken for a leaked worker. Workers deregister themselves; the
    /// count is the overload-cap gauge.
    conns: Mutex<FxHashMap<u64, Stream>>,
    /// The next connection number (1-based; the handler's trace id too).
    next_id: AtomicU64,
    /// Worker panics reaped while still accepting.
    panicked: AtomicUsize,
    /// Join handles of spawned connection workers (reaped as we go).
    workers: Mutex<Vec<Worker>>,
    /// One nudge target per listener, so a `shutdown` served on any
    /// transport wakes every accept loop.
    wake: Vec<ServerAddr>,
}

impl ServeCtx {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for addr in &self.wake {
            let _ = addr.connect();
        }
    }
}

/// Bound-but-not-yet-serving listeners: bind first (so callers learn the
/// ephemeral TCP port before any client can race the connect), then
/// [`Bound::serve`] or [`Bound::serve_router`].
pub struct Bound {
    listeners: Vec<Listener>,
}

impl Bound {
    /// Binds a Unix socket path and/or a TCP address (at least one).
    pub fn bind(unix: Option<&Path>, tcp: Option<&str>) -> Result<Bound, ServeError> {
        if unix.is_none() && tcp.is_none() {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no listener: give a Unix socket path or a TCP address",
            )));
        }
        let mut listeners = Vec::new();
        if let Some(path) = unix {
            listeners.push(Listener::Unix(UnixListener::bind(path)?));
        }
        if let Some(addr) = tcp {
            listeners.push(Listener::Tcp(TcpListener::bind(addr)?));
        }
        Ok(Bound { listeners })
    }

    /// The actual TCP address (useful after binding port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.listeners.iter().find_map(|listener| match listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        })
    }

    /// Serves daemon sessions over `shared` on every bound listener until
    /// a `shutdown` request, then drains workers. The Unix socket file (if
    /// any) is removed on exit.
    pub fn serve(self, shared: Arc<Shared>, config: ServerConfig) -> Result<(), ServeError> {
        // See serve_stdio: serving always records spans.
        xmlta_obs::enable();
        self.serve_front(shared, config)
    }

    /// Serves `front` on every bound listener until a `shutdown` request,
    /// then closes idle connections and drains workers. The Unix socket
    /// file (if any) is removed on exit.
    pub(crate) fn serve_front<F: Front>(
        self,
        front: Arc<F>,
        config: ServerConfig,
    ) -> Result<(), ServeError> {
        let listeners = self.listeners;
        let wake = listeners
            .iter()
            .map(Listener::wake_addr)
            .collect::<Result<_, _>>()?;
        let ctx = Arc::new(ServeCtx {
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(FxHashMap::default()),
            next_id: AtomicU64::new(1),
            panicked: AtomicUsize::new(0),
            workers: Mutex::new(Vec::new()),
            wake,
        });
        // One accept loop per listener; the scope joins them all before we
        // drain, so no loop can spawn workers after the drain starts.
        let accept_error: Option<ServeError> = std::thread::scope(|scope| {
            let (ctx, front, config) = (&ctx, &front, &config);
            let handles: Vec<_> = listeners
                .iter()
                .map(|listener| scope.spawn(move || accept_loop(listener, ctx, front, config)))
                .collect();
            handles.into_iter().find_map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                    .err()
            })
        });
        for addr in &ctx.wake {
            if let ServerAddr::Unix(path) = addr {
                let _ = std::fs::remove_file(path);
            }
        }
        // Close every still-open connection so idle workers see EOF and
        // exit; the drain window is then only for workers mid-request.
        for (_, stream) in lock(&ctx.conns).drain() {
            stream.shutdown_both();
        }
        let workers = std::mem::take(&mut *lock(&ctx.workers));
        let drained = drain(workers, config.drain, ctx.panicked.load(Ordering::SeqCst));
        match accept_error {
            Some(e) => Err(e),
            None => drained,
        }
    }
}

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Binds `path` and serves connections until a `shutdown` request, then
/// drains workers. The socket file is removed on orderly exit.
pub fn serve_unix(
    path: &Path,
    shared: Arc<Shared>,
    config: ServerConfig,
) -> Result<(), ServeError> {
    Bound::bind(Some(path), None)?.serve(shared, config)
}

/// One listener's accept loop. Sheds over-cap accepts, spawns a worker per
/// served connection, and reaps finished workers as it goes — a
/// long-running server must not accumulate one JoinHandle per connection
/// ever served.
fn accept_loop<F: Front>(
    listener: &Listener,
    ctx: &Arc<ServeCtx>,
    front: &Arc<F>,
    config: &ServerConfig,
) -> Result<(), ServeError> {
    let mut consecutive_errors = 0u32;
    loop {
        if lock(&ctx.workers).len() >= 64 {
            let (still, panicked) = reap(std::mem::take(&mut *lock(&ctx.workers)));
            ctx.panicked.fetch_add(panicked, Ordering::SeqCst);
            lock(&ctx.workers).extend(still);
        }
        let mut stream = match listener.accept() {
            Ok(stream) => {
                consecutive_errors = 0;
                stream
            }
            Err(e) => {
                // Transient accept failures (fd pressure, aborted
                // handshakes) must not take down a server full of live
                // sessions; only a persistently failing listener is fatal.
                consecutive_errors += 1;
                if consecutive_errors >= 100 {
                    // Take the whole daemon down with us — the other
                    // accept loop must not serve on half a server.
                    ctx.request_shutdown();
                    return Err(e.into());
                }
                if ctx.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if ctx.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client); stop accepting.
            drop(stream);
            break;
        }
        if lock(&ctx.conns).len() >= config.max_conns {
            // Shed: one structured frame naming the cap and a retry
            // hint, then close. Never block the accept loop on a slow
            // peer — the frame fits any socket buffer.
            front.counters().overload_sheds.bump();
            let frame = crate::proto::overloaded_frame(config.max_conns, config.retry_after_ms);
            let _ = stream.write_all(frame.as_bytes());
            let _ = stream.write_all(b"\n");
            let _ = stream.flush();
            stream.shutdown_both();
            continue;
        }
        // A connection shutdown cannot close (fd exhaustion) is not served.
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        front.counters().conns_accepted.bump();
        let id = ctx.next_id.fetch_add(1, Ordering::SeqCst);
        lock(&ctx.conns).insert(id, clone);
        let front = Arc::clone(front);
        let config = config.clone();
        let worker_ctx = Arc::clone(ctx);
        let worker = std::thread::spawn(move || {
            let result = serve_connection(stream, id, &front, &config);
            lock(&worker_ctx.conns).remove(&id);
            if matches!(result, Ok(SessionEnd::Shutdown)) {
                worker_ctx.request_shutdown();
            }
            result
        });
        lock(&ctx.workers).push(worker);
    }
    Ok(())
}

fn serve_connection<F: Front>(
    stream: Stream,
    conn: u64,
    front: &Arc<F>,
    config: &ServerConfig,
) -> std::io::Result<SessionEnd> {
    if let Stream::Tcp(s) = &stream {
        // Frames are small and latency-sensitive; never wait for a
        // second frame to fill a segment.
        let _ = s.set_nodelay(true);
    }
    if config.read_timeout.is_some() {
        stream.set_read_timeout(config.read_timeout)?;
    }
    let reader = BufReader::new(stream.try_clone()?);
    let writer = BufWriter::new(stream);
    let mut handler = F::open(front, conn, config);
    serve_stream(&mut handler, reader, writer, config.max_frame)
}

type Worker = std::thread::JoinHandle<std::io::Result<SessionEnd>>;

/// Joins the finished workers: the unfinished ones, and how many of the
/// joined ones panicked.
fn reap(workers: Vec<Worker>) -> (Vec<Worker>, usize) {
    let (done, still): (Vec<_>, Vec<_>) = workers.into_iter().partition(|w| w.is_finished());
    (
        still,
        done.into_iter().filter_map(|w| w.join().err()).count(),
    )
}

/// Joins every worker within `window`; leftovers and panics (including
/// the `already_panicked` reaped during accept) are errors. Leftovers take
/// precedence: a leaked worker is the more urgent bug (its panic — if it
/// ever finishes with one — was never observed at all).
pub(crate) fn drain(
    workers: Vec<Worker>,
    window: Duration,
    already_panicked: usize,
) -> Result<(), ServeError> {
    let deadline = Instant::now() + window;
    let mut pending = workers;
    let mut panicked = already_panicked;
    while !pending.is_empty() && Instant::now() < deadline {
        let (still, newly) = reap(pending);
        panicked += newly;
        pending = still;
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    if !pending.is_empty() {
        return Err(ServeError::LeakedWorkers(pending.len()));
    }
    if panicked > 0 {
        return Err(ServeError::WorkerPanicked(panicked));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Direct unit tests for [`drain`] accounting, which the end-to-end
    //! suites only exercise on the happy path: leftover workers past the
    //! drain window, panicked-worker counts, and their precedence.

    use super::{drain, ServeError, SessionEnd};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn finished_worker() -> std::thread::JoinHandle<std::io::Result<SessionEnd>> {
        std::thread::spawn(|| Ok(SessionEnd::Eof))
    }

    fn panicking_worker() -> std::thread::JoinHandle<std::io::Result<SessionEnd>> {
        // Silence the default panic printer for the expected panic: the
        // hook is process-global, so swap it back immediately after the
        // panic has fired (join guarantees that).
        std::thread::spawn(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let result = std::panic::catch_unwind(|| panic!("intentional test panic"));
            std::panic::set_hook(prev);
            std::panic::resume_unwind(result.unwrap_err())
        })
    }

    /// A worker parked until `release` flips (simulating a stuck session).
    fn parked_worker(
        release: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<std::io::Result<SessionEnd>> {
        std::thread::spawn(move || {
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(SessionEnd::Eof)
        })
    }

    #[test]
    fn empty_and_finished_workers_drain_clean() {
        assert!(drain(Vec::new(), Duration::from_millis(10), 0).is_ok());
        let workers = vec![finished_worker(), finished_worker()];
        assert!(drain(workers, Duration::from_millis(500), 0).is_ok());
    }

    #[test]
    fn leftover_workers_past_the_window_are_counted() {
        let release = Arc::new(AtomicBool::new(false));
        let workers = vec![
            parked_worker(Arc::clone(&release)),
            parked_worker(Arc::clone(&release)),
            finished_worker(),
        ];
        let result = drain(workers, Duration::from_millis(50), 0);
        release.store(true, Ordering::SeqCst); // unpark before asserting
        match result {
            Err(ServeError::LeakedWorkers(2)) => {}
            other => panic!("expected LeakedWorkers(2), got {other:?}"),
        }
    }

    #[test]
    fn panicked_workers_are_counted_and_added_to_preexisting_tally() {
        let workers = vec![panicking_worker(), finished_worker(), panicking_worker()];
        match drain(workers, Duration::from_secs(5), 1) {
            Err(ServeError::WorkerPanicked(3)) => {}
            other => panic!("expected WorkerPanicked(3), got {other:?}"),
        }
    }

    #[test]
    fn already_panicked_alone_fails_the_drain() {
        match drain(Vec::new(), Duration::from_millis(10), 2) {
            Err(ServeError::WorkerPanicked(2)) => {}
            other => panic!("expected WorkerPanicked(2), got {other:?}"),
        }
    }

    #[test]
    fn leaks_take_precedence_over_panics() {
        let release = Arc::new(AtomicBool::new(false));
        let workers = vec![parked_worker(Arc::clone(&release)), panicking_worker()];
        let result = drain(workers, Duration::from_millis(50), 1);
        release.store(true, Ordering::SeqCst);
        match result {
            Err(ServeError::LeakedWorkers(1)) => {}
            other => panic!("expected LeakedWorkers(1), got {other:?}"),
        }
    }
}
