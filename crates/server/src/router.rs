//! The shard-fleet router: a self-healing front-end over a supervised
//! fleet of `xmltad` shard processes.
//!
//! The router speaks the existing v1/v2 JSONL protocol to clients and
//! consistent-hashes **schema fingerprints** across shards it spawns
//! itself: registration and typecheck frames route by their
//! content-derived handle, binary batches by their stream bytes, so a
//! schema group always lands on the shard whose caches are warm for it.
//! All shards mount one shared `--store` directory, so a replacement
//! shard cold-starts warm by adopting compiled artifacts from disk.
//!
//! Failure is designed to be a non-event:
//!
//! * a **supervisor** respawns crashed shards on the same socket and
//!   health-checks the fleet via the `stats` op;
//! * every (session, shard) pair talks through a [`ResilientClient`]
//!   link carrying the session's `hello` + `register` frames as its
//!   reconnect prelude, so a respawned shard is re-registered and
//!   in-flight requests replay by id on the replacement;
//! * a per-shard **circuit breaker** opens after K consecutive
//!   failures; while open, requests fail over to the ring successor
//!   (whose link replays the same prelude — the handles follow the
//!   traffic), and half-open probes close it once the shard recovers;
//! * **graceful drain** marks a shard unroutable, waits out its
//!   in-flight requests (new traffic rebalances to the successors
//!   before the process sees SIGTERM), then asks it to shut down.
//!
//! The relay forwards request lines byte-preserved and parses them only
//! for routing, so every shard session replays the client's exact frame
//! sequence — responses are byte-identical to a direct daemon's, which
//! the crash-chaos differential suite (`tests/fleet_chaos.rs`) pins.
//!
//! This module holds only routing and supervision: the ring, breakers,
//! supervisor, shard links, and the relay's route/forward/stats logic.
//! Listening, accepting, shedding, idle reaping, frame reading and the
//! drain all come from the daemon's own core in [`crate::net`]
//! ([`Bound::serve_router`]), so the router answers oversized,
//! non-UTF-8, and slow frames exactly like a daemon.

use crate::client::{splitmix64, ResilientClient, RetryPolicy, ServerAddr};
use crate::net::{lock, Bound, Front, ServeError, ServerConfig};
use crate::proto::{self, Op, Target};
use crate::session::{Control, Handler};
use crate::state::{handle_for_binary, handle_for_source, ServerCounters};
use crate::Client;
use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xmlta_obs::Counter;
use xmlta_service::artifact::fnv1a64;
use xmlta_service::{parse_json, Json};

/// Virtual nodes per shard on the hash ring: enough that key spread
/// stays near ideal and a shard's removal scatters its keys evenly over
/// the survivors.
pub const VNODES_PER_SHARD: usize = 64;

/// A consistent-hash ring over `shards` shard indices.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// A ring with [`VNODES_PER_SHARD`] points per shard, derived only
    /// from the shard index — two routers over the same fleet size agree
    /// on placement.
    pub fn new(shards: usize) -> Ring {
        assert!(shards > 0, "a ring needs at least one shard");
        let mut points = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            // Seed each shard's chain from a *hash* of its index —
            // arithmetic seeds collide with SplitMix64's own
            // golden-ratio increment and give adjacent shards nearly
            // identical point sequences.
            let mut state = fnv1a64(format!("xmlta-shard-{shard}").as_bytes());
            for _ in 0..VNODES_PER_SHARD {
                points.push((splitmix64(&mut state), shard));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// How many shards the ring was built over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The ring with `shard`'s points removed — what routing looks like
    /// while that shard is drained. Only keys the removed shard owned
    /// remap (each to its ring successor); every other key keeps its
    /// placement, which the placement property test pins.
    pub fn without(&self, shard: usize) -> Ring {
        Ring {
            points: self
                .points
                .iter()
                .copied()
                .filter(|&(_, s)| s != shard)
                .collect(),
            shards: self.shards,
        }
    }

    /// The shard owning `key`: the first point clockwise from the key.
    pub fn route(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[i % self.points.len()].1
    }

    /// Every distinct shard in ring order starting at `key`'s owner —
    /// the failover order (`order(key)[0] == route(key)`).
    pub fn order(&self, key: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut seen = vec![false; self.shards];
        let mut order = Vec::new();
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
            }
        }
        order
    }
}

/// The routing key of a parsed request: the schema-content fingerprint
/// the ring hashes. Ops with no content affinity (`hello`, `ping`,
/// `trace`) key to 0 — the session's anchor shard — so their replies
/// stay deterministic.
pub fn route_key(op: &Op) -> u64 {
    fn target_key(target: &Target) -> u64 {
        match target {
            Target::Handle(handle) => fnv1a64(handle.as_bytes()),
            Target::Source(source) => fnv1a64(handle_for_source(source).as_bytes()),
        }
    }
    match op {
        Op::Register { source } => fnv1a64(handle_for_source(source).as_bytes()),
        Op::RegisterBin { data } => fnv1a64(handle_for_binary(data).as_bytes()),
        Op::Typecheck { target } => target_key(target),
        // An update routes by its *predecessor* handle: the successor is
        // computed on the shard whose caches (and retained engine) are
        // warm for the chain.
        Op::Update { handle, .. } => fnv1a64(handle.as_bytes()),
        Op::Batch { items, .. } => items.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, item| {
            acc.rotate_left(7) ^ target_key(&item.target)
        }),
        Op::BatchBin { data, .. } => fnv1a64(data),
        Op::Hello { .. } | Op::Ping | Op::Stats | Op::Trace { .. } | Op::Shutdown => 0,
    }
}

/// Circuit-breaker states for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests route normally.
    Closed,
    /// Tripped: requests fail over to the ring successor until the
    /// cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe request is admitted; success closes
    /// the breaker, failure reopens it.
    HalfOpen,
}

/// A consecutive-failure circuit breaker. Time is passed in, so the
/// state machine is deterministic under test.
#[derive(Debug)]
pub struct Breaker {
    threshold: u32,
    cooldown: Duration,
    failures: u32,
    state: BreakerState,
    opened_at: Option<Instant>,
}

impl Breaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and probing again `cooldown` after opening.
    pub fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            threshold: threshold.max(1),
            cooldown,
            failures: 0,
            state: BreakerState::Closed,
            opened_at: None,
        }
    }

    /// The current state (`Open` is reported until a post-cooldown
    /// [`Breaker::admit`] flips it to `HalfOpen`).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// May a request be routed here right now? While open, admission is
    /// denied until the cooldown elapses — the first admission after it
    /// is the half-open probe.
    pub fn admit(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let opened = self
                    .opened_at
                    .expect("open breakers record their open time");
                if now.duration_since(opened) >= self.cooldown {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a failure; returns `true` when this failure (re)opened
    /// the breaker.
    pub fn note_failure(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = Some(now);
                true
            }
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(now);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a success: the breaker closes and the failure run resets.
    pub fn note_success(&mut self) {
        self.failures = 0;
        self.state = BreakerState::Closed;
        self.opened_at = None;
    }
}

/// Router configuration. [`RouterConfig::default`] serves two shards
/// with no store.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Fleet size (at least 1).
    pub shards: usize,
    /// Shared artifact store directory mounted by every shard (`--store
    /// DIR`): replacement shards adopt compiled artifacts from it
    /// instead of recompiling.
    pub store: Option<PathBuf>,
    /// The shard daemon argv prefix (binary plus any leading
    /// subcommand, e.g. `["…/xmlta", "serve"]`). `None` resolves
    /// `xmltad` next to the current executable, falling back to the
    /// current executable's `serve` subcommand.
    pub shard_command: Option<Vec<String>>,
    /// Extra arguments appended to every shard spawn (after `--socket`
    /// and `--store`), e.g. `--read-timeout-ms`.
    pub shard_args: Vec<String>,
    /// Directory the shard sockets live in. `None` creates one under
    /// the temp dir.
    pub runtime_dir: Option<PathBuf>,
    /// Frame cap mirrored onto client connections and shard links.
    pub max_frame: usize,
    /// Consecutive failures before a shard's breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker waits before admitting a probe.
    pub breaker_cooldown: Duration,
    /// Supervisor health-check cadence (`stats` probe per shard).
    pub health_interval: Duration,
    /// Per-link retry discipline (reconnect/replay against one shard).
    /// The seed is decorrelated per connection and shard.
    pub link_policy: RetryPolicy,
    /// Per-link read timeout: a shard silent past this fails the link
    /// (and the request becomes a failover candidate).
    pub link_read_timeout: Duration,
    /// How long shutdown waits for client sessions, and how long each
    /// shard gets to drain before escalation.
    pub drain: Duration,
    /// Silence shard stdio and router announcements (tests).
    pub quiet: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: 2,
            store: None,
            shard_command: None,
            shard_args: Vec::new(),
            runtime_dir: None,
            max_frame: crate::proto::DEFAULT_MAX_FRAME,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            health_interval: Duration::from_millis(250),
            link_policy: RetryPolicy {
                attempts: 10,
                base_ms: 10,
                max_ms: 200,
                seed: 0,
            },
            link_read_timeout: Duration::from_secs(2),
            drain: Duration::from_secs(10),
            quiet: false,
        }
    }
}

/// Fleet-level counters surfaced through the router's `stats` reply.
#[derive(Debug, Default)]
pub struct RouterCounters {
    shard_respawns: Counter,
    breaker_opens: Counter,
    failovers: Counter,
}

impl RouterCounters {
    /// Crashed shards respawned by the supervisor.
    pub fn shard_respawns(&self) -> u64 {
        self.shard_respawns.get()
    }

    /// Times any shard's breaker (re)opened.
    pub fn breaker_opens(&self) -> u64 {
        self.breaker_opens.get()
    }

    /// Requests served by a non-home shard after failover.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }
}

/// One shard's process slot.
#[derive(Debug, Default)]
struct Slot {
    child: Option<Child>,
    /// Spawn count — bumps on every (re)spawn.
    generation: u64,
}

/// The supervised fleet: spawned shard processes, their ring, breakers,
/// and counters. Shared between the relay sessions and the supervisor
/// thread.
pub struct Router {
    cfg: RouterConfig,
    ring: Ring,
    shard_argv: Vec<String>,
    runtime_dir: PathBuf,
    sockets: Vec<PathBuf>,
    slots: Vec<Mutex<Slot>>,
    breakers: Vec<Mutex<Breaker>>,
    draining: Vec<AtomicBool>,
    inflight: Vec<AtomicU64>,
    /// Fleet counters (`shard_respawns` / `breaker_opens` / `failovers`).
    pub counters: RouterCounters,
    /// The client-facing core's tallies (accepts, sheds, read timeouts);
    /// the `stats` reply sums the shards' instead.
    serving: ServerCounters,
    shutdown: AtomicBool,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Router {
    /// Spawns the fleet: boots `cfg.shards` shard daemons on sockets
    /// under the runtime dir, waits for each to accept, and starts the
    /// supervisor (respawn + health checks). The returned router serves
    /// nothing yet — pass it to [`Bound::serve_router`].
    pub fn spawn(cfg: RouterConfig) -> std::io::Result<Arc<Router>> {
        assert!(cfg.shards > 0, "a fleet needs at least one shard");
        let runtime_dir = match &cfg.runtime_dir {
            Some(dir) => dir.clone(),
            None => std::env::temp_dir().join(format!(
                "xmlta-router-{}-{:x}",
                std::process::id(),
                std::ptr::from_ref(&cfg) as usize
            )),
        };
        std::fs::create_dir_all(&runtime_dir)?;
        let shard_argv = match &cfg.shard_command {
            Some(argv) if !argv.is_empty() => argv.clone(),
            _ => default_shard_command()?,
        };
        let shards = cfg.shards;
        let sockets: Vec<PathBuf> = (0..shards)
            .map(|i| runtime_dir.join(format!("shard-{i}.sock")))
            .collect();
        let router = Arc::new(Router {
            ring: Ring::new(shards),
            shard_argv,
            runtime_dir,
            sockets,
            slots: (0..shards).map(|_| Mutex::new(Slot::default())).collect(),
            breakers: (0..shards)
                .map(|_| Mutex::new(Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown)))
                .collect(),
            draining: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            inflight: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            counters: RouterCounters::default(),
            serving: ServerCounters::default(),
            shutdown: AtomicBool::new(false),
            supervisor: Mutex::new(None),
            cfg,
        });
        for shard in 0..shards {
            router.spawn_shard(shard)?;
        }
        for shard in 0..shards {
            router.await_socket(shard, Duration::from_secs(10))?;
        }
        let sup = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || router.supervise())
        };
        *lock(&router.supervisor) = Some(sup);
        Ok(router)
    }

    /// Fleet size.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// The hash ring (placement is derived from fleet size alone).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The socket path shard `shard` serves on (stable across respawns).
    pub fn shard_socket(&self, shard: usize) -> &Path {
        &self.sockets[shard]
    }

    /// The live pid of shard `shard`, if it currently has a process.
    pub fn shard_pid(&self, shard: usize) -> Option<u32> {
        lock(&self.slots[shard]).child.as_ref().map(Child::id)
    }

    /// How many times shard `shard` has been (re)spawned.
    pub fn shard_generation(&self, shard: usize) -> u64 {
        lock(&self.slots[shard]).generation
    }

    /// SIGKILLs shard `shard` (chaos injection — the supervisor
    /// respawns it). Returns whether a process was there to kill.
    pub fn kill_shard(&self, shard: usize) -> bool {
        let mut slot = lock(&self.slots[shard]);
        match slot.child.as_mut() {
            Some(child) => {
                let _ = child.kill();
                let _ = child.wait();
                slot.child = None;
                true
            }
            None => false,
        }
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Gracefully drains shard `shard` while the fleet keeps serving:
    /// marks it unroutable (new requests fail over to ring successors,
    /// whose session links replay the same register prelude — the
    /// handles rebalance with the traffic), waits out its in-flight
    /// requests, asks it to shut down over the wire, and escalates
    /// SIGTERM → SIGKILL only if it ignores the request. The slot stays
    /// empty: a drained shard is never respawned.
    pub fn drain_shard(&self, shard: usize, patience: Duration) -> std::io::Result<()> {
        self.draining[shard].store(true, Ordering::SeqCst);
        let deadline = Instant::now() + patience;
        while self.inflight[shard].load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Polite: the daemon's own shutdown op drains its sessions and
        // removes its socket file.
        let _ = Client::connect(&self.sockets[shard]).and_then(|mut admin| {
            admin.set_read_timeout(Some(Duration::from_secs(1)))?;
            admin.roundtrip(&proto::req_shutdown(0))
        });
        let mut slot = lock(&self.slots[shard]);
        let Some(child) = slot.child.as_mut() else {
            return Ok(());
        };
        if wait_with_deadline(child, deadline)? {
            slot.child = None;
            return Ok(());
        }
        // Escalate: SIGTERM, a grace period, then SIGKILL.
        signal(child.id(), "-TERM");
        let grace = Instant::now() + Duration::from_millis(500);
        if wait_with_deadline(child, grace)? {
            slot.child = None;
            return Ok(());
        }
        let _ = child.kill();
        let _ = child.wait();
        slot.child = None;
        Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("shard {shard} ignored drain and was killed"),
        ))
    }

    /// Drains the whole fleet (shutdown path): joins the supervisor so
    /// nothing respawns behind the drain, then drains each shard in
    /// turn. The first drain error (a shard that had to be killed) is
    /// returned after every shard has been dealt with.
    pub fn drain_fleet(&self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(sup) = lock(&self.supervisor).take() {
            let _ = sup.join();
        }
        let mut first_err = None;
        for shard in 0..self.cfg.shards {
            if let Err(e) = self.drain_shard(shard, self.cfg.drain) {
                first_err.get_or_insert(e);
            }
        }
        let _ = std::fs::remove_dir_all(&self.runtime_dir);
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn spawn_shard(&self, shard: usize) -> std::io::Result<()> {
        let sock = &self.sockets[shard];
        // A crashed shard leaves its socket file behind; the daemon's
        // bind would fail on it.
        let _ = std::fs::remove_file(sock);
        let (bin, prefix_args) = self
            .shard_argv
            .split_first()
            .expect("shard argv is non-empty");
        let mut cmd = Command::new(bin);
        cmd.args(prefix_args);
        cmd.arg("--socket").arg(sock);
        if let Some(store) = &self.cfg.store {
            cmd.arg("--store").arg(store);
        }
        cmd.args(&self.cfg.shard_args);
        cmd.stdin(Stdio::null());
        if self.cfg.quiet {
            cmd.stdout(Stdio::null()).stderr(Stdio::null());
        }
        let child = cmd.spawn()?;
        let pid = child.id();
        let mut slot = lock(&self.slots[shard]);
        slot.generation += 1;
        slot.child = Some(child);
        if !self.cfg.quiet {
            eprintln!(
                "xmlta router: shard {shard} pid {pid} on {}",
                sock.display()
            );
        }
        Ok(())
    }

    /// Waits until shard `shard`'s socket accepts a connection.
    fn await_socket(&self, shard: usize, patience: Duration) -> std::io::Result<()> {
        let deadline = Instant::now() + patience;
        loop {
            if UnixStream::connect(&self.sockets[shard]).is_ok() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "shard {shard} never bound {}",
                        self.sockets[shard].display()
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The supervisor loop: respawn crashed shards, health-check the
    /// fleet, feed the breakers.
    fn supervise(self: Arc<Router>) {
        let mut last_health = Instant::now();
        while !self.is_shutdown() {
            for shard in 0..self.cfg.shards {
                if self.draining[shard].load(Ordering::SeqCst) {
                    continue;
                }
                let needs_respawn = {
                    let mut slot = lock(&self.slots[shard]);
                    match slot.child.as_mut() {
                        None => true,
                        Some(child) => match child.try_wait() {
                            Ok(Some(_)) | Err(_) => {
                                slot.child = None;
                                true
                            }
                            Ok(None) => false,
                        },
                    }
                };
                if needs_respawn && !self.is_shutdown() {
                    self.counters.shard_respawns.bump();
                    if !self.cfg.quiet {
                        eprintln!("xmlta router: shard {shard} exited; respawning");
                    }
                    if self.spawn_shard(shard).is_ok() {
                        let _ = self.await_socket(shard, Duration::from_secs(5));
                    }
                }
            }
            if last_health.elapsed() >= self.cfg.health_interval {
                last_health = Instant::now();
                self.health_sweep();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// One health pass: a `stats` probe per shard, feeding the breaker.
    fn health_sweep(&self) {
        for shard in 0..self.cfg.shards {
            if self.draining[shard].load(Ordering::SeqCst) {
                continue;
            }
            if self.probe(shard) {
                self.note_ok(shard);
            } else {
                self.note_failure(shard);
            }
        }
    }

    fn probe(&self, shard: usize) -> bool {
        Client::connect(&self.sockets[shard])
            .and_then(|mut c| {
                c.set_read_timeout(Some(Duration::from_millis(500)))?;
                c.roundtrip(&proto::req_stats(0))
            })
            .map(|reply| reply.contains("\"stats\""))
            .unwrap_or(false)
    }

    /// May a request be routed to `shard` right now?
    fn admit(&self, shard: usize) -> bool {
        !self.draining[shard].load(Ordering::SeqCst)
            && lock(&self.breakers[shard]).admit(Instant::now())
    }

    fn note_ok(&self, shard: usize) {
        lock(&self.breakers[shard]).note_success();
    }

    fn note_failure(&self, shard: usize) {
        if lock(&self.breakers[shard]).note_failure(Instant::now()) {
            self.counters.breaker_opens.bump();
        }
    }

    /// The breaker state of `shard` (observability).
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        lock(&self.breakers[shard]).state()
    }

    /// Reads one shard's `stats` object over a fresh v1 connection.
    fn fetch_shard_stats(&self, shard: usize) -> Option<Json> {
        let reply = Client::connect(&self.sockets[shard])
            .and_then(|mut c| {
                c.set_read_timeout(Some(Duration::from_secs(1)))?;
                c.roundtrip(&proto::req_stats(0))
            })
            .ok()?;
        let mut parsed = parse_json(&reply).ok()?;
        if let Json::Obj(fields) = &mut parsed {
            let i = fields.iter().position(|(k, _)| k == "stats")?;
            return Some(fields.swap_remove(i).1);
        }
        None
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // Backstop for callers that never drained: reap the children so
        // a failing test cannot leak daemon processes.
        for slot in &self.slots {
            let mut slot = lock(slot);
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.child = None;
        }
    }
}

/// Resolves the default shard daemon: `xmltad` next to the current
/// executable, or the current executable's own `serve` subcommand.
fn default_shard_command() -> std::io::Result<Vec<String>> {
    let exe = std::env::current_exe()?;
    if let Some(dir) = exe.parent() {
        let sibling = dir.join("xmltad");
        if sibling.is_file() {
            return Ok(vec![sibling.display().to_string()]);
        }
    }
    Ok(vec![exe.display().to_string(), "serve".to_string()])
}

/// `kill -SIG pid` without a libc dependency.
fn signal(pid: u32, sig: &str) {
    let _ = Command::new("kill")
        .arg(sig)
        .arg(pid.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Waits for `child` until `deadline`; `Ok(true)` when it exited.
fn wait_with_deadline(child: &mut Child, deadline: Instant) -> std::io::Result<bool> {
    loop {
        if child.try_wait()?.is_some() {
            return Ok(true);
        }
        if Instant::now() >= deadline {
            return Ok(false);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Decrements a shard's in-flight gauge on scope exit.
struct InflightGuard<'a>(&'a AtomicU64);

impl<'a> InflightGuard<'a> {
    fn enter(gauge: &'a AtomicU64) -> InflightGuard<'a> {
        gauge.fetch_add(1, Ordering::SeqCst);
        InflightGuard(gauge)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One client session's relay state: a lazily-dialed [`ResilientClient`]
/// link per shard, plus the session prelude (`hello` + `register`
/// frames in client order) every link replays so any shard can serve
/// any of the session's handles.
pub(crate) struct Relay {
    router: Arc<Router>,
    conn_id: u64,
    read_timeout: Option<Duration>,
    links: Vec<Option<Link>>,
    prelude: Vec<(u64, String)>,
}

struct Link {
    client: ResilientClient,
    /// How many session prelude frames this link has absorbed.
    synced: usize,
}

impl Relay {
    /// Routes and forwards one request line, byte-preserved: its reply
    /// frames (one, or a whole `batch_bin` stream) joined by `\n`.
    fn route(&mut self, line: &str) -> std::io::Result<(String, Control)> {
        // Unparseable frames forward too: the shard answers with the same
        // error bytes a direct daemon would.
        let Ok(request) = proto::parse_request(line, 2) else {
            return self.forward_raw(0, line).map(|f| (f, Control::Continue));
        };
        let op = &request.op;
        match op {
            Op::Stats => return Ok((self.stats_reply(&request.id), Control::Continue)),
            Op::Shutdown => return Ok((proto::ok_frame(&request.id), Control::Shutdown)),
            _ => {}
        }
        let key = route_key(op);
        // A non-numeric id cannot ride the id-correlated replay path;
        // relay it raw (the reply echoes whatever id the client sent).
        let Some(id) = request.id.as_u64() else {
            return self.forward_raw(key, line).map(|f| (f, Control::Continue));
        };
        let reply = self.failover(key, |relay, shard| relay.send_on(shard, id, line))?;
        if matches!(
            op,
            Op::Hello { .. } | Op::Register { .. } | Op::RegisterBin { .. } | Op::Update { .. }
        ) {
            // Future links (and every reconnect) replay these, so handles
            // survive respawns and follow failovers. Updates are
            // session-state frames too: replaying the chain re-derives
            // every successor handle on the replacement shard.
            self.prelude.push((id, line.to_string()));
        }
        Ok((reply, Control::Continue))
    }

    /// Plays a request on its home shard first, then — on breaker-open
    /// or link failure — on each ring successor in order, with one last
    /// breaker-blind try of the home shard so a fleet mid-respawn still
    /// gets the request rather than the client an error.
    fn failover<T>(
        &mut self,
        key: u64,
        mut send: impl FnMut(&mut Relay, usize) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let order = self.router.ring().order(key);
        let home = order[0];
        for &shard in &order {
            if !self.router.admit(shard) {
                continue;
            }
            match send(self, shard) {
                Ok(reply) => {
                    self.router.note_ok(shard);
                    if shard != home {
                        self.router.counters.failovers.bump();
                    }
                    return Ok(reply);
                }
                Err(_) => self.router.note_failure(shard),
            }
        }
        let reply = send(self, home)?;
        self.router.note_ok(home);
        Ok(reply)
    }

    /// Forwards a frame that cannot be id-correlated.
    fn forward_raw(&mut self, key: u64, line: &str) -> std::io::Result<String> {
        self.failover(key, |relay, shard| {
            relay.sync_link(shard)?;
            let link = relay.links[shard].as_mut().expect("link just synced");
            link.client.run_raw(line)
        })
    }

    /// Ensures shard `shard` has a link carrying the full session
    /// prelude: missing frames are pushed into the link's reconnect
    /// prelude and — when the link is already connected — also played
    /// onto the live connection (their replies are discarded; the
    /// client already has the home shard's). They are played one at a
    /// time because a client may reuse an id: a `run` needs distinct
    /// ids.
    fn sync_link(&mut self, shard: usize) -> std::io::Result<()> {
        if self.links[shard].is_none() {
            let router = &self.router;
            let mut policy = router.cfg.link_policy.clone();
            policy.seed ^= self.conn_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ shard as u64;
            let mut client =
                ResilientClient::new(ServerAddr::Unix(router.sockets[shard].clone()), policy);
            client.set_no_hello();
            client.set_pipeline(1);
            client.set_max_frame(router.cfg.max_frame);
            client.set_read_timeout(Some(router.cfg.link_read_timeout));
            self.links[shard] = Some(Link { client, synced: 0 });
        }
        let link = self.links[shard].as_mut().expect("link just created");
        if link.synced < self.prelude.len() {
            let missing = &self.prelude[link.synced..];
            let live = link.client.is_connected();
            for (_, frame) in missing {
                link.client.push_prelude(frame.clone());
            }
            link.synced = self.prelude.len();
            if live {
                for frame in missing {
                    link.client.run(std::slice::from_ref(frame))?;
                }
            }
        }
        Ok(())
    }

    /// Plays one request on shard `shard`'s link: its answer, which for
    /// a streamed `batch_bin` is the whole stream joined by `\n`.
    fn send_on(&mut self, shard: usize, id: u64, frame: &str) -> std::io::Result<String> {
        let router = Arc::clone(&self.router);
        let _inflight = InflightGuard::enter(&router.inflight[shard]);
        self.sync_link(shard)?;
        let link = self.links[shard].as_mut().expect("link just synced");
        let mut answers = link.client.run(&[(id, frame)])?;
        Ok(answers.remove(&id).expect("run() answers every work id"))
    }

    /// The router's aggregated `stats` reply: the numeric counters of
    /// every reachable shard summed, plus the fleet-level fields
    /// (`shards`, `shards_reachable`, `shard_respawns`, `breaker_opens`,
    /// `failovers`).
    fn stats_reply(&self, id: &Json) -> String {
        let mut sums: BTreeMap<String, u64> = BTreeMap::new();
        let mut reachable = 0u64;
        for shard in 0..self.router.shards() {
            let Some(stats) = self.router.fetch_shard_stats(shard) else {
                continue;
            };
            reachable += 1;
            if let Json::Obj(fields) = stats {
                for (key, value) in fields {
                    if let Some(n) = value.as_u64() {
                        *sums.entry(key).or_insert(0) += n;
                    }
                }
            }
        }
        sums.insert("shards".into(), self.router.shards() as u64);
        sums.insert("shards_reachable".into(), reachable);
        sums.insert(
            "shard_respawns".into(),
            self.router.counters.shard_respawns(),
        );
        sums.insert("breaker_opens".into(), self.router.counters.breaker_opens());
        sums.insert("failovers".into(), self.router.counters.failovers());
        let mut out = String::from("{\"id\":");
        id.render(&mut out);
        out.push_str(",\"ok\":true,\"stats\":{");
        for (i, (key, value)) in sums.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            xmlta_service::json::push_escaped(&mut out, key);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("}}");
        out
    }
}

impl Handler for Relay {
    fn answer(&mut self, line: &str) -> (String, Control) {
        self.route(line).unwrap_or_else(|_| {
            // The whole fleet stayed unreachable past every retry and
            // failover: answer structurally rather than dropping the
            // client.
            let id = parse_json(line)
                .ok()
                .and_then(|j| j.get("id").cloned())
                .unwrap_or(Json::Null);
            let reject = proto::Reject {
                id,
                code: proto::code::SHARD_UNAVAILABLE,
                message: "no shard reachable for this request".to_string(),
            };
            (proto::error_frame(&reject), Control::Continue)
        })
    }

    fn counters(&self) -> &ServerCounters {
        &self.router.serving
    }

    fn read_timeout(&self) -> Option<Duration> {
        self.read_timeout
    }
}

impl Front for Router {
    type Handler = Relay;

    fn counters(&self) -> &ServerCounters {
        &self.serving
    }

    fn open(router: &Arc<Router>, conn: u64, config: &ServerConfig) -> Relay {
        Relay {
            router: Arc::clone(router),
            conn_id: conn,
            read_timeout: config.read_timeout,
            links: (0..router.shards()).map(|_| None).collect(),
            prelude: Vec::new(),
        }
    }
}

impl Bound {
    /// Serves client sessions against the fleet — through the daemon's
    /// connection core, with its connection cap, idle reaping and frame
    /// handling at their defaults, and `router`'s frame cap and drain
    /// window — until a `shutdown` request, then drains the fleet. Exit
    /// discipline mirrors the daemon's: leaked sessions and panicked
    /// workers are errors, and a shard that ignored its drain reports as
    /// an I/O error. Span recording stays off in the router.
    pub fn serve_router(self, router: Arc<Router>) -> Result<(), ServeError> {
        let config = ServerConfig {
            max_frame: router.cfg.max_frame,
            drain: router.cfg.drain,
            ..ServerConfig::default()
        };
        let served = self.serve_front(Arc::clone(&router), config);
        // Drain even after a core error: no shard may outlive the router.
        let fleet = router.drain_fleet();
        served.and(fleet.map_err(ServeError::Io))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed ^ 0x5de6_77a0_55ed_f1a5;
        (0..n).map(|_| splitmix64(&mut state)).collect()
    }

    #[test]
    fn ring_spread_stays_within_twice_ideal() {
        for shards in 4..=16 {
            let ring = Ring::new(shards);
            let keys = keys(10_000, shards as u64);
            let mut counts = vec![0usize; shards];
            for &k in &keys {
                counts[ring.route(k)] += 1;
            }
            let ideal = keys.len() / shards;
            for (shard, &count) in counts.iter().enumerate() {
                assert!(
                    count <= 2 * ideal,
                    "shard {shard}/{shards} owns {count} of {} keys (ideal {ideal})",
                    keys.len()
                );
                assert!(count > 0, "shard {shard}/{shards} owns no keys");
            }
        }
    }

    #[test]
    fn removing_a_shard_remaps_only_its_keys() {
        for shards in 4..=10 {
            let ring = Ring::new(shards);
            let removed = shards / 2;
            let without = ring.without(removed);
            for &k in &keys(5_000, shards as u64 + 100) {
                let before = ring.route(k);
                let after = without.route(k);
                assert_ne!(after, removed, "drained shard still routed");
                if before != removed {
                    assert_eq!(
                        before, after,
                        "key {k:#x} moved off a surviving shard when {removed} left"
                    );
                }
            }
        }
    }

    #[test]
    fn failover_order_starts_at_home_and_covers_the_fleet() {
        let ring = Ring::new(5);
        for &k in &keys(200, 7) {
            let order = ring.order(k);
            assert_eq!(order[0], ring.route(k));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                vec![0, 1, 2, 3, 4],
                "order misses a shard: {order:?}"
            );
        }
    }

    #[test]
    fn route_key_is_content_derived_not_spelling_derived() {
        let source = "alphabet { a b }\ninput dtd { root: a; a: (b)*; b: epsilon; }\n";
        // Register, typecheck-by-source, and typecheck-by-handle of the
        // same content must all land on the same shard.
        let register = route_key(&Op::Register {
            source: source.to_string(),
        });
        let by_source = route_key(&Op::Typecheck {
            target: Target::Source(source.to_string()),
        });
        let by_handle = route_key(&Op::Typecheck {
            target: Target::Handle(handle_for_source(source)),
        });
        assert_eq!(register, by_source);
        assert_eq!(register, by_handle);
        // No-affinity ops anchor at key 0.
        assert_eq!(route_key(&Op::Ping), 0);
        assert_eq!(
            route_key(&Op::Hello {
                accepts: None,
                max_v: Some(2),
                pipeline: None
            }),
            0
        );
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let t0 = Instant::now();
        let cooldown = Duration::from_millis(100);
        let mut b = Breaker::new(3, cooldown);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit(t0));
        assert!(!b.note_failure(t0));
        assert!(!b.note_failure(t0));
        // Third consecutive failure trips it.
        assert!(b.note_failure(t0));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(t0), "no admission while the cooldown runs");
        assert!(!b.note_failure(t0), "already open: not a fresh open");
        // Cooldown elapsed: one probe admitted (half-open).
        let t1 = t0 + cooldown;
        assert!(b.admit(t1));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe failure reopens (and counts as an open).
        assert!(b.note_failure(t1));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(t1 + Duration::from_millis(50)));
        // Next probe succeeds: closed, failure run reset.
        let t2 = t1 + cooldown;
        assert!(b.admit(t2));
        b.note_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.note_failure(t2), "failure run restarts from zero");
    }

    #[test]
    fn successes_reset_the_consecutive_failure_run() {
        let now = Instant::now();
        let mut b = Breaker::new(2, Duration::from_secs(1));
        assert!(!b.note_failure(now));
        b.note_success();
        assert!(!b.note_failure(now), "the earlier failure no longer counts");
        assert!(b.note_failure(now), "two consecutive failures trip K=2");
    }
}
