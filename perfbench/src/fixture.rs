//! The process fixture: real `xmltad` / `xmlta router` children, so CPU
//! time and memory attribute to the server processes, read from `/proc`.
//!
//! Every socket, store and runtime directory lives in a [`RunDir`] whose
//! name is unique per call (tag, pid and a process-wide counter — two
//! fixtures in one process never share a path, which a pid-only name
//! cannot promise). Paths are relative to the working directory, so they
//! stay inside the checkout and well under the Unix socket path limit.
//! Dropping a fixture — also while unwinding from a panic — kills what is
//! still running, waits for it, and removes its directory.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xmlta_server::{proto, Client};
use xmlta_service::{parse_json, Json};

/// Where run directories are created, relative to the working directory.
pub const RUN_ROOT: &str = ".bench_run";

/// How long a server may take to become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// The server binaries under test.
#[derive(Debug, Clone)]
pub struct Bins {
    pub xmltad: PathBuf,
    pub xmlta: PathBuf,
}

/// A uniquely named scratch directory, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn new(tag: &str) -> std::io::Result<RunDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(RUN_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last run directory is gone.
        let _ = std::fs::remove_dir(RUN_ROOT);
    }
}

/// A running server: one `xmltad`, or an `xmlta router` and its shards.
pub struct Server {
    child: Option<Child>,
    socket: PathBuf,
    /// Declared last: dropped after the processes are gone.
    _dir: RunDir,
}

impl Server {
    /// Spawns one `xmltad` and waits until it accepts connections.
    pub fn daemon(bins: &Bins, tag: &str) -> std::io::Result<Server> {
        let dir = RunDir::new(tag)?;
        let socket = dir.join("d.sock");
        let mut cmd = Command::new(&bins.xmltad);
        cmd.arg("--socket").arg(&socket);
        Server::start(cmd, socket, dir, None)
    }

    /// Prewarms a fresh artifact store with `xmlta store prewarm` on
    /// `sources`, spawns `xmlta router --shards N` over it, and waits until
    /// every shard is reachable.
    pub fn router(
        bins: &Bins,
        tag: &str,
        shards: usize,
        sources: &[&str],
    ) -> std::io::Result<Server> {
        let dir = RunDir::new(tag)?;
        let store = dir.join("store");
        let mut prewarm = Command::new(&bins.xmlta);
        prewarm
            .arg("store")
            .arg("--store")
            .arg(&store)
            .arg("prewarm");
        for (i, source) in sources.iter().enumerate() {
            let path = dir.join(&format!("prewarm-{i}.xti"));
            std::fs::write(&path, source)?;
            prewarm.arg(path);
        }
        let status = prewarm.stdout(Stdio::null()).status()?;
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "store prewarm failed: {status}"
            )));
        }
        let socket = dir.join("r.sock");
        let mut cmd = Command::new(&bins.xmlta);
        cmd.arg("router")
            .arg("--socket")
            .arg(&socket)
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--store")
            .arg(&store)
            .arg("--shard-bin")
            .arg(&bins.xmltad)
            .arg("--runtime-dir")
            .arg(dir.join("rt"))
            .arg("--quiet-shards");
        Server::start(cmd, socket, dir, Some(shards))
    }

    fn start(
        mut cmd: Command,
        socket: PathBuf,
        dir: RunDir,
        shards: Option<usize>,
    ) -> std::io::Result<Server> {
        let child = cmd.stdin(Stdio::null()).stdout(Stdio::null()).spawn()?;
        let mut server = Server {
            child: Some(child),
            socket,
            _dir: dir,
        };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(mut client) = server.connect() {
                match shards {
                    None => return Ok(server),
                    Some(n) => {
                        if reachable_shards(&mut client) == Some(n) {
                            return Ok(server);
                        }
                    }
                }
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(std::io::Error::other(format!(
                    "server exited early: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other("server never became ready"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> std::io::Result<Client> {
        let mut client = Client::connect(&self.socket)?;
        client.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(client)
    }

    /// The front process's pid (the daemon, or the router).
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Every server process: the front process and its children.
    pub fn pids(&self) -> Vec<u32> {
        let pid = self.pid();
        let mut pids = vec![pid];
        pids.extend(children_of(pid));
        pids
    }

    /// Stops the server through the protocol (`shutdown`; a router drains
    /// its shards) and checks it exits cleanly. Falls back to killing.
    pub fn stop(mut self) -> Result<(), String> {
        let acked = self
            .connect()
            .and_then(|mut c| c.roundtrip(&proto::req_shutdown(u64::MAX)))
            .is_ok();
        let mut child = self.child.take().expect("a running server");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if acked && status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.child = Some(child);
                    return Err("server did not stop after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let shards = children_of(child.id());
            for &pid in &shards {
                signal_kill(pid);
            }
            let _ = child.kill();
            let _ = child.wait();
            // The shards were reparented when the router died; wait until
            // they are gone before their directory is removed.
            let deadline = Instant::now() + Duration::from_secs(5);
            while shards.iter().any(|&p| alive(p)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// `shards_reachable` from the server's `stats` reply.
fn reachable_shards(client: &mut Client) -> Option<usize> {
    let reply = client.roundtrip(&proto::req_stats(u64::MAX)).ok()?;
    let json = parse_json(&reply).ok()?;
    json.get("stats")?
        .get("shards_reachable")
        .and_then(Json::as_u64)
        .map(|n| n as usize)
}

// ---------------------------------------------------------------------
// /proc

/// CPU time and peak memory of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// utime + stime, in milliseconds.
    pub cpu_ms: f64,
    /// VmHWM, in kB.
    pub hwm_kb: u64,
}

/// Reads `/proc/<pid>/{stat,status}`.
pub fn usage(pid: u32) -> Option<Usage> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let fields: Vec<&str> = stat[stat.rfind(')')? + 2..].split(' ').collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let hwm_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0);
    Some(Usage {
        cpu_ms: ticks as f64 * 1000.0 / clock_ticks_per_second(),
        hwm_kb,
    })
}

/// Summed usage of `pids` (processes that vanished count as zero).
pub fn usage_of(pids: &[u32]) -> Usage {
    pids.iter()
        .filter_map(|&p| usage(p))
        .fold(Usage::default(), |a, u| Usage {
            cpu_ms: a.cpu_ms + u.cpu_ms,
            hwm_kb: a.hwm_kb + u.hwm_kb,
        })
}

/// CPU time the hypervisor has withheld from this machine since boot,
/// summed over its CPUs (`steal` in `/proc/stat`), in milliseconds.
pub fn host_steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks * 1000.0 / clock_ticks_per_second())
}

/// Processes whose parent is `pid`.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| parent_of(p) == Some(pid))
        .collect()
}

fn parent_of(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    stat[stat.rfind(')')? + 2..].split(' ').nth(1)?.parse().ok()
}

/// Whether `pid` exists and is not a zombie.
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| s.get(s.rfind(')')? + 2..).map(|r| !r.starts_with('Z')))
        .unwrap_or(false)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// `sysconf(_SC_CLK_TCK)`: the unit of the `/proc/<pid>/stat` CPU times.
fn clock_ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer name and has no memory effects.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

fn signal_kill(pid: u32) {
    const SIGKILL: i32 = 9;
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: kill(2) only takes integers; `pid` is a positive process
        // id read from /proc, never 0 or -1 (which would signal groups).
        if pid > 0 {
            unsafe {
                kill(pid, SIGKILL);
            }
        }
    }
}
