//! Serve-mode argument handling shared by the `xmltad` binary and the
//! `xmlta serve` subcommand, plus the `xmlta router` front-end.

use crate::router::{Router, RouterConfig};
use crate::{serve_stdio, Bound, ServeError, ServerConfig, Shared};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The value following `flag`; `what` names it in the error.
fn value(it: &mut std::slice::Iter<'_, String>, flag: &str, what: &str) -> Result<String, String> {
    it.next().cloned().ok_or(format!("{flag} needs {what}"))
}

/// Parses the count following `flag`.
fn count_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    value(it, flag, "a count")?
        .parse()
        .map_err(|_| format!("invalid {flag} value"))
}

/// Announces `bound`'s TCP address, runs `serve` on it, and maps the
/// outcome to the serve-mode exit contract.
fn serve_bound(
    bound: Bound,
    name: &str,
    serve: impl FnOnce(Bound) -> Result<(), ServeError>,
) -> Result<ExitCode, String> {
    if let Some(addr) = bound.tcp_addr() {
        // Announce the resolved address so callers binding port 0 can
        // discover the ephemeral port (parsed by ci.sh and tests).
        eprintln!("{name}: listening on tcp {addr}");
    }
    match serve(bound) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        // Socket-level failures are usage/IO errors (exit 2, like the
        // documented contract); exit 1 is reserved for worker
        // leaks/panics at shutdown.
        Err(e @ ServeError::Io(_)) => Err(e.to_string()),
        Err(e) => {
            eprintln!("{name}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Parses serve-mode arguments (`--socket PATH | --tcp HOST:PORT |
/// --stdio`, `[--max-frame BYTES] [--registry-cap N] [--memo-cap N]
/// [--pipeline-depth N] [--read-timeout-ms MS] [--max-conns N]
/// [--store DIR] [--trace PATH]`) and runs the server. `--socket` and
/// `--tcp` may be combined (one shared state, two listeners). `name`
/// labels error output; `usage` is printed for `--help`.
pub fn run_serve(args: &[String], name: &str, usage: &str) -> Result<ExitCode, String> {
    let mut socket: Option<PathBuf> = None;
    let mut tcp: Option<String> = None;
    let mut stdio = false;
    let mut store_dir: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut config = ServerConfig::default();
    let mut registry_cap = crate::state::DEFAULT_REGISTRY_CAPACITY;
    let mut memo_cap = xmlta_service::cache::DEFAULT_MEMO_CAPACITY;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(value(&mut it, "--socket", "a path")?.into()),
            "--tcp" => tcp = Some(value(&mut it, "--tcp", "HOST:PORT")?),
            "--stdio" => stdio = true,
            "--max-frame" => config.max_frame = count_value(&mut it, "--max-frame")?,
            "--registry-cap" => registry_cap = count_value(&mut it, "--registry-cap")?,
            "--memo-cap" => memo_cap = count_value(&mut it, "--memo-cap")?,
            "--pipeline-depth" => config.pipeline_depth = count_value(&mut it, "--pipeline-depth")?,
            "--read-timeout-ms" => {
                // 0 disables the idle reaper entirely.
                let ms = count_value(&mut it, "--read-timeout-ms")? as u64;
                config.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-conns" => config.max_conns = count_value(&mut it, "--max-conns")?.max(1),
            "--retry-after-ms" => {
                config.retry_after_ms = count_value(&mut it, "--retry-after-ms")? as u64
            }
            "--store" => store_dir = Some(value(&mut it, "--store", "a directory")?.into()),
            "--trace" => trace_path = Some(value(&mut it, "--trace", "a file path")?.into()),
            "--help" | "-h" => {
                print!("{usage}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{usage}")),
        }
    }
    let store = match store_dir {
        None => None,
        Some(dir) => Some(std::sync::Arc::new(
            xmlta_store::Store::open(&dir)
                .map_err(|e| format!("--store {}: {e}", dir.display()))?,
        )
            as std::sync::Arc<dyn xmlta_service::ArtifactBackend>),
    };
    if let Some(path) = &trace_path {
        xmlta_obs::install_file(path).map_err(|e| format!("--trace {}: {e}", path.display()))?;
    }
    let shared = Shared::with_store(registry_cap, memo_cap, store);
    if stdio {
        if socket.is_some() || tcp.is_some() {
            return Err("--stdio excludes --socket/--tcp".into());
        }
        serve_stdio(shared, &config).map_err(|e| format!("stdio session: {e}"))?;
        return Ok(ExitCode::SUCCESS);
    }
    if socket.is_none() && tcp.is_none() {
        return Err(format!(
            "give --socket PATH, --tcp HOST:PORT, or --stdio\n\n{usage}"
        ));
    }
    let bound = Bound::bind(socket.as_deref(), tcp.as_deref()).map_err(|e| e.to_string())?;
    serve_bound(bound, name, |bound| bound.serve(shared, config))
}

/// Parses router-mode arguments (`--socket PATH | --tcp HOST:PORT`,
/// `--shards N`, `[--store DIR] [--shard-bin PATH] [--shard-arg ARG]...
/// [--runtime-dir DIR] [--max-frame BYTES] [--drain-ms MS]
/// [--breaker-failures K] [--breaker-cooldown-ms MS]
/// [--health-interval-ms MS] [--link-retries N] [--link-timeout-ms MS]
/// [--quiet-shards]`) and runs the shard-fleet front-end. Exit
/// discipline matches `run_serve`: usage/IO errors exit 2, leaked or
/// panicked workers (and shards that ignored their drain) exit 1.
pub fn run_router(args: &[String], name: &str, usage: &str) -> Result<ExitCode, String> {
    let mut socket: Option<PathBuf> = None;
    let mut tcp: Option<String> = None;
    let mut cfg = RouterConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(value(&mut it, "--socket", "a path")?.into()),
            "--tcp" => tcp = Some(value(&mut it, "--tcp", "HOST:PORT")?),
            "--shards" => cfg.shards = count_value(&mut it, "--shards")?.max(1),
            "--store" => cfg.store = Some(value(&mut it, "--store", "a directory")?.into()),
            "--shard-bin" => {
                cfg.shard_command = Some(vec![value(&mut it, "--shard-bin", "a path")?])
            }
            "--shard-arg" => cfg
                .shard_args
                .push(value(&mut it, "--shard-arg", "a value")?),
            "--runtime-dir" => {
                cfg.runtime_dir = Some(value(&mut it, "--runtime-dir", "a directory")?.into())
            }
            "--max-frame" => cfg.max_frame = count_value(&mut it, "--max-frame")?,
            "--drain-ms" => {
                cfg.drain = Duration::from_millis(count_value(&mut it, "--drain-ms")? as u64)
            }
            "--breaker-failures" => {
                cfg.breaker_threshold = count_value(&mut it, "--breaker-failures")?.max(1) as u32
            }
            "--breaker-cooldown-ms" => {
                cfg.breaker_cooldown =
                    Duration::from_millis(count_value(&mut it, "--breaker-cooldown-ms")? as u64)
            }
            "--health-interval-ms" => {
                cfg.health_interval =
                    Duration::from_millis(count_value(&mut it, "--health-interval-ms")? as u64)
            }
            "--link-retries" => {
                cfg.link_policy.attempts = count_value(&mut it, "--link-retries")?.max(1) as u32
            }
            "--link-timeout-ms" => {
                cfg.link_read_timeout =
                    Duration::from_millis(count_value(&mut it, "--link-timeout-ms")?.max(1) as u64)
            }
            "--quiet-shards" => cfg.quiet = true,
            "--help" | "-h" => {
                print!("{usage}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{usage}")),
        }
    }
    if socket.is_none() && tcp.is_none() {
        return Err(format!("give --socket PATH or --tcp HOST:PORT\n\n{usage}"));
    }
    if let Some(dir) = &cfg.store {
        // Fail fast on an unusable store before any shard boots on it.
        std::fs::create_dir_all(dir).map_err(|e| format!("--store {}: {e}", dir.display()))?;
    }
    let bound = Bound::bind(socket.as_deref(), tcp.as_deref()).map_err(|e| e.to_string())?;
    let router = Router::spawn(cfg).map_err(|e| format!("spawning the fleet: {e}"))?;
    serve_bound(bound, name, |bound| bound.serve_router(router))
}
