//! The four workloads: set-up, the measured closed loop, and (traced
//! runs) the per-layer figures.

use crate::check::{self, Verdict};
use crate::fixture::{self, Bins, Server, RUN_ROOT};
use crate::inputs::{self, ColdTemplate, EditScript, SECTIONS};
use crate::load::{self, median, Phase, Slice};
use crate::trace::{self, Budget};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use xmlta_server::{proto, Client};
use xmlta_service::{parse_instance, Json};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Requests in flight on the handle workloads.
const HANDLE_WINDOW: usize = 32;

/// The edit-stream request after which the servers' peak memory is read.
/// Every version an update registers stays in the registry, so memory read
/// at the end of the run would grow with throughput; read after a fixed
/// number of edits, it measures the footprint of that much history.
const EDIT_RSS_CHECKPOINT: u64 = 1024;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub bins: Bins,
}

/// A run's figures: `(name, value, unit)` metrics plus the lines printed
/// above the result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Problems that make the run incorrect without failing a request
    /// (a server that did not stop cleanly, a stepped replay that
    /// diverged from the server path).
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub lines: Vec<String>,
}

impl Report {
    fn push<const N: usize>(&mut self, metrics: [(&str, f64); N]) {
        self.metrics
            .extend(metrics.into_iter().map(|(n, v)| (n.to_string(), v)));
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "warm-handles" => handles(args, false),
        "routed-handles" => handles(args, true),
        "cold-mixed" => cold(args),
        "edit-stream" => edits(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// The seven end-to-end metrics of a measured phase. Throughput, CPU per
/// verdict and the latency percentiles are medians over the calmest
/// quarter (at least) of the phase's slices — those in which the host
/// hypervisor withheld the least CPU time from this machine — so
/// interference from other tenants of the host moves the slices it hits,
/// not the figure.
fn end_to_end(report: &mut Report, setups: &[f64], phase: &Phase, rss_kb: u64) {
    let mut slices = phase.slices();
    slices.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    // Slices tied with the quarter's calmest-but-last all count as calm.
    let cutoff = slices
        .get(slices.len().div_ceil(4).saturating_sub(1))
        .map_or(0.0, |s| s.steal);
    let calm = &slices[..slices.partition_point(|s| s.steal <= cutoff)];
    let over = |f: fn(&Slice) -> f64| median(&calm.iter().map(f).collect::<Vec<_>>());
    let latencies = phase.latencies();
    report.push([
        ("setup_s", median(setups)),
        ("verdicts_per_s", over(|s| s.verdicts_per_s)),
        ("req_p50_ms", over(|s| s.p50_ms)),
        ("req_p99_ms", over(|s| s.p99_ms)),
        (
            "ok_frac",
            1.0 - phase.failed as f64 / phase.attempted.max(1) as f64,
        ),
        (
            "server_cpu_ms_per_kverdict",
            over(|s| s.cpu_ms_per_kverdict),
        ),
        ("server_peak_rss_mb", rss_kb as f64 / 1024.0),
    ]);
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    report.lines.push(format!(
        "latency samples: {} (req_p50_ms, req_p99_ms: per slice, median of the {} calmest of \
         {} slices of ~{:.0} samples); set-ups: {}; verdicts: {}; failed_frac: {} of {} requests",
        latencies.len(),
        calm.len(),
        slices.len(),
        latencies.len() as f64 / slices.len().max(1) as f64,
        setups.len(),
        phase.verdicts(),
        phase.failed,
        phase.attempted
    ));
    report.lines.push(format!(
        "per slice, calmest first: verdicts/s {:?}; host steal {:?}",
        slices
            .iter()
            .map(|s| s.verdicts_per_s.round())
            .collect::<Vec<_>>(),
        slices
            .iter()
            .map(|s| (s.steal * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    for miss in &phase.misses {
        report.lines.push(format!("miss: {miss}"));
    }
}

fn stop(server: Server, report: &mut Report) {
    if let Err(e) = server.stop() {
        report.problems.push(e);
    }
}

/// Runs `setup` `SETUP_REPS` times, timing each, and keeps the last
/// server (with its client state) for the measured phase.
fn set_up<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<(Server, T), String>,
) -> Result<(Vec<f64>, Server, T), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, state)) = live.take() {
            drop(state);
            stop(server, report);
        }
        let t = Instant::now();
        live = Some(setup()?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (server, state) = live.expect("at least one set-up");
    Ok((setups, server, state))
}

/// The server's `stats` object.
fn stats(client: &mut Client) -> Result<Json, String> {
    let reply = load::call(client, &proto::req_stats(u64::MAX))?;
    reply
        .get("stats")
        .cloned()
        .ok_or_else(|| "stats reply without stats".into())
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// `hits / (hits + misses)` over the change between two `stats` replies.
fn hit_ratio(before: &Json, after: &Json, prefix: &str) -> f64 {
    let delta = |k: &str| counter(after, k) - counter(before, k);
    let hits = delta(&format!("{prefix}_hits"));
    let misses = delta(&format!("{prefix}_misses"));
    hits / (hits + misses).max(1.0)
}

fn trace_file(workload: &str) -> PathBuf {
    PathBuf::from(RUN_ROOT).join(format!("trace-{workload}.jsonl"))
}

/// The layer metrics a traced replay yields: every span's self time as
/// `<span>_us`, plus the coverage figures.
fn layer_metrics(report: &mut Report, budget: &Budget, transport_us: f64) {
    let plain = budget.plain_mean_us();
    let attributed: f64 = budget.layers.values().sum();
    for (name, us) in &budget.layers {
        report.metrics.push((format!("{name}_us"), *us));
    }
    if let Some(us) = budget.register_us {
        report.metrics.push(("state.register_us".to_string(), us));
    }
    report.push([
        ("net.transport_us", transport_us),
        ("proto.frame_kb", budget.frame_kb),
        ("lemma14.retained_walks", budget.retained_walks),
        ("session.handle_frame_us", plain),
        ("trace.coverage", attributed / plain),
        ("trace.unattributed_us", plain - attributed),
        ("trace.overhead_us", budget.stepped_us - plain),
    ]);
    report.lines.push(format!(
        "traced replay: {} requests; handle_frame {plain:.1} us/request, stepped {:.1} us; \
         self time per request:",
        budget.requests, budget.stepped_us
    ));
    let mut by_time: Vec<(&&str, &f64)> = budget.layers.iter().collect();
    by_time.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, us) in by_time {
        report.lines.push(format!(
            "  {name:<22} {us:>12.2} us  {:>5.1}%",
            100.0 * us / plain
        ));
    }
    report.lines.push(format!(
        "  {:<22} {:>12.2} us  {:>5.1}%",
        "(unattributed)",
        plain - attributed,
        100.0 * (plain - attributed) / plain
    ));
    if budget.mismatches > 0 {
        report.problems.push(format!(
            "{} stepped replies differ from Session::handle_frame",
            budget.mismatches
        ));
    }
}

// ---------------------------------------------------------------------
// warm-handles / routed-handles

/// Spawn (daemon, or prewarmed 2-shard fleet), register every variant on
/// a v2 connection, and run one unmeasured typecheck pass. Returns the
/// server, the connection and the handles.
fn handle_setup(
    bins: &Bins,
    sources: &[String],
    routed: bool,
) -> Result<(Server, (Client, Vec<String>)), String> {
    let server = if routed {
        Server::router(bins, "routed", 2, &[sources[0].as_str()]).map_err(io)?
    } else {
        Server::daemon(bins, "warm").map_err(io)?
    };
    let mut client = server.connect().map_err(io)?;
    load::call(
        &mut client,
        &proto::req_hello_v2(u64::MAX, 2, Some(HANDLE_WINDOW)),
    )?;
    let register: Vec<String> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| proto::req_register(i as u64, s))
        .collect();
    let handles = load::pipelined(&mut client, HANDLE_WINDOW, &register)?
        .iter()
        .map(|r| r.get("handle").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<String>>>()
        .ok_or("register reply without a handle")?;
    let frames: Vec<String> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| proto::req_typecheck_handle(i as u64, h))
        .collect();
    for (i, reply) in load::pipelined(&mut client, HANDLE_WINDOW, &frames)?
        .iter()
        .enumerate()
    {
        if check::verdict_of(reply)? != Verdict::TypeChecks {
            return Err(format!("warm-up: variant {i} does not typecheck"));
        }
    }
    Ok((server, (client, handles)))
}

/// The measured loop over typecheck-by-handle frames.
fn handle_loop(
    client: &mut Client,
    pids: &[u32],
    handles: &[String],
    window: usize,
    duration: Duration,
) -> Phase {
    let n = handles.len();
    load::windowed(
        client,
        pids,
        window,
        duration,
        |k| proto::req_typecheck_handle(k, &handles[k as usize % n]),
        |k, reply| match check::verdict_of(reply)? {
            Verdict::TypeChecks => Ok(1),
            _ => Err(format!("variant {}: expected typechecks", k as usize % n)),
        },
    )
}

fn handles(args: &Args, routed: bool) -> Result<Report, String> {
    let sources = inputs::handle_sources(args.seed);
    let mut report = Report::default();
    let (setups, server, (mut client, handles)) =
        set_up(&mut report, || handle_setup(&args.bins, &sources, routed))?;
    let pids = server.pids();
    let before = if args.trace {
        Some(stats(&mut client)?)
    } else {
        None
    };
    let router0 = fixture::usage(server.pid()).unwrap_or_default();
    let phase = handle_loop(
        &mut client,
        &pids,
        &handles,
        HANDLE_WINDOW,
        Duration::from_secs(args.seconds),
    );
    let router1 = fixture::usage(server.pid()).unwrap_or_default();
    end_to_end(
        &mut report,
        &setups,
        &phase,
        fixture::usage_of(&pids).hwm_kb,
    );
    if let Some(before) = before {
        let after = stats(&mut client)?;
        // Depth-1 round trips of the same frames, for the transport cost.
        let depth1 = handle_loop(&mut client, &pids, &handles, 1, Duration::from_secs(1));
        let budget = trace::handles(&sources, 4, &trace_file(&args.workload));
        let transport = median(&depth1.latencies()) * 1e3 - median(&budget.plain_us);
        layer_metrics(&mut report, &budget, transport);
        cache_ratios(&mut report, &before, &after);
        if routed {
            // The same client and inputs against one direct daemon.
            let (d_server, (mut d_client, d_handles)) = handle_setup(&args.bins, &sources, false)?;
            let d_phase = handle_loop(
                &mut d_client,
                &d_server.pids(),
                &d_handles,
                HANDLE_WINDOW,
                Duration::from_secs(args.seconds.div_ceil(2)),
            );
            drop(d_client);
            stop(d_server, &mut report);
            let kverdicts = phase.verdicts().max(1) as f64 / 1e3;
            let (hits, misses) = (
                counter(&after, "store_hits"),
                counter(&after, "store_misses"),
            );
            report.push([
                (
                    "router.relay_us",
                    (median(&phase.latencies()) - median(&d_phase.latencies())) * 1e3,
                ),
                (
                    "router.cpu_ms_per_kverdict",
                    (router1.cpu_ms - router0.cpu_ms) / kverdicts,
                ),
                ("router.failovers", counter(&after, "failovers")),
                ("router.shard_respawns", counter(&after, "shard_respawns")),
                ("store.hit_ratio", hits / (hits + misses).max(1.0)),
                ("store.corrupt", counter(&after, "store_corrupt")),
            ]);
        }
    }
    drop(client);
    stop(server, &mut report);
    Ok(report)
}

fn cache_ratios(report: &mut Report, before: &Json, after: &Json) {
    report.push([
        ("cache.memo_hit_ratio", hit_ratio(before, after, "memo")),
        ("cache.schema_hit_ratio", hit_ratio(before, after, "schema")),
        ("cache.rule_hit_ratio", hit_ratio(before, after, "rule")),
        ("cache.bout_hit_ratio", hit_ratio(before, after, "bout")),
    ]);
}

// ---------------------------------------------------------------------
// cold-mixed

/// Spawns a daemon and negotiates a depth-1 v2 connection.
fn plain_setup(bins: &Bins, tag: &str) -> Result<(Server, Client), String> {
    let server = Server::daemon(bins, tag).map_err(io)?;
    let mut client = server.connect().map_err(io)?;
    load::call(&mut client, &proto::req_hello_v2(u64::MAX, 2, Some(1)))?;
    Ok((server, client))
}

/// Checks one `batch_bin` report against the template's known answers;
/// counterexamples are queued for certification after the clock stops.
fn check_report(
    template: &ColdTemplate,
    k: u64,
    reply: &Json,
    pending: &mut Vec<(u64, usize, Verdict)>,
) -> Result<u64, String> {
    let results = match reply.get("report").and_then(|r| r.get("results")) {
        Some(Json::Arr(results)) => results,
        _ => return Err("reply without a report".into()),
    };
    if results.len() != template.items.len() {
        return Err(format!(
            "{} results for {} items",
            results.len(),
            template.items.len()
        ));
    }
    let mut wrong = Vec::new();
    for (i, (record, item)) in results.iter().zip(&template.items).enumerate() {
        if record.get("name").and_then(Json::as_str) != Some(item.name.as_str()) {
            wrong.push(format!("{} (out of order)", item.name));
            continue;
        }
        match check::verdict_of(record) {
            Ok(Verdict::TypeChecks) if item.expect_typechecks => {}
            Ok(v @ Verdict::CounterExample { .. }) if !item.expect_typechecks => {
                pending.push((k, i, v))
            }
            Ok(_) => wrong.push(format!("{} (wrong verdict)", item.name)),
            Err(e) => wrong.push(format!("{} ({e})", item.name)),
        }
    }
    if wrong.is_empty() {
        Ok(results.len() as u64)
    } else {
        Err(format!("items {}", wrong.join(", ")))
    }
}

fn cold(args: &Args) -> Result<Report, String> {
    let template = inputs::cold_template(args.seed);
    let mut report = Report::default();
    let (setups, server, mut client) = set_up(&mut report, || plain_setup(&args.bins, "cold"))?;
    let pids = server.pids();
    let before = if args.trace {
        Some(stats(&mut client)?)
    } else {
        None
    };
    let mut pending = Vec::new();
    let mut phase = load::windowed(
        &mut client,
        &pids,
        1,
        Duration::from_secs(args.seconds),
        |k| proto::req_batch_bin(k, &template.stamped(k), Some(1), false),
        |k, reply| check_report(&template, k, reply, &mut pending),
    );
    let rss_kb = fixture::usage_of(&pids).hwm_kb;
    for (k, i, verdict) in &pending {
        let item = &template.items[*i];
        if let Err(e) = check::check_verdict(&item.instance, item.expect_typechecks, verdict) {
            phase.void(*k, format!("request {k}: item {}: {e}", item.name));
        }
    }
    end_to_end(&mut report, &setups, &phase, rss_kb);
    if let Some(before) = before {
        let after = stats(&mut client)?;
        let budget = trace::cold(&template, 10, &trace_file(&args.workload));
        let transport = median(&phase.latencies()) * 1e3 - median(&budget.plain_us);
        layer_metrics(&mut report, &budget, transport);
        cache_ratios(&mut report, &before, &after);
    }
    drop(client);
    stop(server, &mut report);
    Ok(report)
}

// ---------------------------------------------------------------------
// edit-stream

fn edits(args: &Args) -> Result<Report, String> {
    let base = EditScript::base_source(args.seed, SECTIONS);
    let mut report = Report::default();
    let (setups, server, (mut client, mut handle)) = set_up(&mut report, || {
        let (server, mut client) = plain_setup(&args.bins, "edit")?;
        let reply = load::call(&mut client, &proto::req_register(u64::MAX - 1, &base))?;
        let handle = reply
            .get("handle")
            .and_then(Json::as_str)
            .ok_or("register reply without a handle")?
            .to_string();
        Ok((server, (client, handle)))
    })?;
    let pids = server.pids();
    let before = if args.trace {
        Some(stats(&mut client)?)
    } else {
        None
    };
    let mut script = EditScript::new(args.seed, SECTIONS);
    let mut phase = Phase::default();
    let mut pending: Vec<(u64, String, Verdict)> = Vec::new();
    let mut reused = Vec::new();
    let duration = Duration::from_secs(args.seconds);
    let mut clock = load::Sampler::start(&pids, duration, &mut phase);
    let mut k = 0u64;
    let mut rss_kb = None;
    while clock.elapsed() < duration {
        let step = script.next_step();
        phase.attempted += 1;
        let sent = Instant::now();
        let pair = (|| {
            let update = load::call(&mut client, &proto::req_update(2 * k, &handle, &step.edit))?;
            let next = update
                .get("handle")
                .and_then(Json::as_str)
                .ok_or("update reply without a handle")?
                .to_string();
            let checked = load::call(&mut client, &proto::req_typecheck_handle(2 * k + 1, &next))?;
            Ok::<_, String>((update, next, checked))
        })();
        let (update, next, checked) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                phase.fail(format!("edit {k}: {e}"));
                break;
            }
        };
        handle = next;
        if let Some(n) = update.get("components_reused").and_then(Json::as_u64) {
            reused.push(n as f64);
        }
        let verdicts = match (check::verdict_of(&update), check::verdict_of(&checked)) {
            (Ok(a), Ok(b)) if a != b => Err("update and typecheck disagree".to_string()),
            (Ok(Verdict::TypeChecks), Ok(_)) if step.expect_typechecks => Ok(2),
            (Ok(v @ Verdict::CounterExample { .. }), Ok(_)) if !step.expect_typechecks => {
                pending.push((k, script.current_source(), v));
                Ok(2)
            }
            (Ok(_), Ok(_)) => Err("wrong verdict".to_string()),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        let verdicts = verdicts.unwrap_or_else(|e| {
            phase.fail(format!("edit {k}: {e}"));
            0
        });
        clock.done(&mut phase, k, sent, verdicts);
        k += 1;
        if k == EDIT_RSS_CHECKPOINT {
            rss_kb = Some(fixture::usage_of(&pids).hwm_kb);
        }
    }
    clock.finish(&mut phase);
    let rss_kb = rss_kb.unwrap_or_else(|| fixture::usage_of(&pids).hwm_kb);
    for (k, source, verdict) in &pending {
        let instance = parse_instance(source).map_err(|e| e.to_string())?;
        if let Err(e) = check::check_verdict(&instance, false, verdict) {
            phase.void(*k, format!("edit {k}: {e}"));
        }
    }
    end_to_end(&mut report, &setups, &phase, rss_kb);
    if let Some(before) = before {
        let after = stats(&mut client)?;
        let budget = trace::edits(args.seed, 512, &trace_file(&args.workload));
        let transport = median(&phase.latencies()) * 1e3 - median(&budget.plain_us);
        layer_metrics(&mut report, &budget, transport);
        cache_ratios(&mut report, &before, &after);
        report.push([(
            "incremental.components_reused",
            reused.iter().sum::<f64>() / reused.len().max(1) as f64,
        )]);
    }
    drop(client);
    stop(server, &mut report);
    Ok(report)
}
