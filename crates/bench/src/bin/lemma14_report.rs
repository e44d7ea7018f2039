//! Emits `BENCH_lemma14.json`: wall-clock timings of the Lemma 14 engine
//! over the scaling families of `lemma14_scaling`, the schema-ops
//! determinize/minimize kernels, the service-layer batch driver (cold vs
//! warm schema cache, plus the binary `.xtb` cold path and the result-memo
//! hit path), and the `xmltad` server (cold source streaming vs warm
//! registered handles, against a one-shot-per-instance baseline), so the
//! perf trajectory is tracked PR over PR.
//!
//! Every point is a *distribution*, not a sample: `--reps N` (default 5,
//! minimum 3) repeats per measurement, with the min, median, and
//! interquartile range recorded per point. A calibration probe at startup
//! measures this host's timing noise floor, stored with the run; every
//! refusal guard ("the binary path must not be slower", "the populated
//! store must be ≥3× faster", ...) then compares medians with a margin of
//! the two IQRs or that floor, whichever is larger — a run is refused only
//! when the regression is distinguishable from noise, and a win is
//! recorded only when it is too.
//!
//! Usage:
//! `cargo run --release -p xmlta-bench --bin lemma14_report -- [label] [--out PATH] [--reps N]`
//!
//! The report is written to `BENCH_lemma14.json` (or `--out PATH`). If the
//! file already exists, the new run is *merged* into its `runs` array at
//! write time against a fresh read (so runs landed by another process while
//! this one measured survive), atomically via temp file + rename; a re-run
//! of an existing label supersedes it in place, so a before/after pair can
//! live in one file. If the existing file is not a well-formed report, the
//! process exits nonzero instead of touching it (see
//! `xmlta_bench::report` for the machinery and its regression tests):
//!
//! ```text
//! cargo run --release -p xmlta-bench --bin lemma14_report -- seed-baseline
//! # ... land the optimization ...
//! cargo run --release -p xmlta-bench --bin lemma14_report -- bitset-kernel
//! ```

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use typecheck_core::typecheck;
use xmlta_automata::generate::{random_dfa, random_nfa};
use xmlta_automata::minimize::minimize;
use xmlta_automata::ops::determinize;
use xmlta_bench::report;
use xmlta_hardness::workloads::{self, Workload};
use xmlta_service::batch::{run_batch, BatchItem};
use xmlta_service::{gen, SchemaCache};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The wall-clock distribution of one measurement, in milliseconds.
#[derive(Clone)]
struct Summary {
    min: f64,
    median: f64,
    /// Interquartile range — the spread the refusal guards compare
    /// median gaps against.
    iqr: f64,
    reps: usize,
}

impl Summary {
    fn print(&self, name: &str, param: usize) {
        println!(
            "  {name:<28} {param:>4}: {:>9.3} ms  (min {:.3}, iqr {:.3}, n={})",
            self.median, self.min, self.iqr, self.reps
        );
    }
}

/// One measured series point.
struct Point {
    param: usize,
    stats: Summary,
}

/// Collapses raw samples into their recorded distribution.
fn summarize(mut samples: Vec<f64>) -> Summary {
    assert!(samples.len() >= 3, "a distribution needs at least 3 reps");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    Summary {
        min: samples[0],
        median: q(0.5),
        iqr: q(0.75) - q(0.25),
        reps: samples.len(),
    }
}

/// Times `reps` runs of `f` and summarizes the distribution.
fn time_stats(reps: usize, mut f: impl FnMut()) -> Summary {
    summarize(
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// Distribution-aware refusal guard: does `advantage × a` beat `b` by
/// more than the measurement noise? Medians are compared with a margin
/// of the two spreads (IQRs) or the host's calibrated noise floor,
/// whichever is larger — a single unlucky sample can no longer fail (or
/// pass) a gate.
fn clearly_beats(a: &Summary, advantage: f64, b: &Summary, floor_ms: f64) -> bool {
    advantage * a.median <= b.median + (a.iqr + b.iqr).max(floor_ms)
}

fn typecheck_series(name: &str, reps: usize, points: &[(usize, Workload)]) -> (String, Vec<Point>) {
    let measured = points
        .iter()
        .map(|(param, w)| {
            let stats = time_stats(reps, || {
                let outcome = typecheck(&w.instance).expect("engine runs");
                assert_eq!(outcome.type_checks(), w.expect_typechecks, "{}", w.name);
            });
            stats.print(name, *param);
            Point {
                param: *param,
                stats,
            }
        })
        .collect();
    (name.to_string(), measured)
}

fn main() -> ExitCode {
    let mut label: Option<String> = None;
    let mut path = "BENCH_lemma14.json".to_string();
    let mut reps = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => path = p,
                None => {
                    eprintln!("lemma14_report: --out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--reps" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                // Below 3 reps there is no interquartile range to guard
                // with, so the distribution harness refuses to degrade
                // into single-sample timing.
                Some(n) if n >= 3 => reps = n,
                _ => {
                    eprintln!("lemma14_report: --reps needs an integer ≥ 3");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("lemma14_report: unknown option `{other}`");
                return ExitCode::from(2);
            }
            other if label.is_none() => label = Some(other.to_string()),
            other => {
                eprintln!("lemma14_report: unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    // The label lands inside the machine-scanned JSON: restrict it to
    // characters that can't break string quoting or the brace scan.
    let label: String = label
        .unwrap_or_else(|| "unlabeled".to_string())
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || "._-+".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect();

    // Refuse a report we cannot merge with *before* spending minutes
    // measuring. The snapshot is deliberately discarded: the real merge
    // happens again at write time (`report::append_run`), so runs landed
    // by another process while this one measures are preserved too.
    if let Err(e) = report::read_history(Path::new(&path)) {
        eprintln!("lemma14_report: {e}; refusing to overwrite");
        return ExitCode::FAILURE;
    }
    println!("== lemma14 perf report ({label}, {reps} reps/point) ==");

    // Calibration: this host's timing noise floor, measured on a fixed
    // small workload and stored with the run. Two distributions whose
    // medians sit within this floor (or within their combined IQRs) are
    // indistinguishable here, and the refusal guards treat them so.
    let noise_floor_ms = {
        let w = workloads::filtering_family(8);
        let probe = time_stats(15, || {
            let outcome = typecheck(&w.instance).expect("engine runs");
            assert_eq!(outcome.type_checks(), w.expect_typechecks, "{}", w.name);
        });
        (2.0 * probe.iqr).max(0.1)
    };
    println!("  noise floor: {noise_floor_ms:.3} ms (15 calibration reps)");

    // The four lemma14_scaling sweeps.
    let mut series: Vec<(String, Vec<Point>)> = vec![
        typecheck_series(
            "lemma14/din-size",
            reps,
            &[2usize, 4, 8, 16, 32].map(|d| (d, workloads::filtering_family(d))),
        ),
        typecheck_series(
            "lemma14/copying-width",
            reps,
            &[1usize, 2, 4, 8].map(|c| (c, workloads::copying_family(c))),
        ),
        typecheck_series(
            "lemma14/deletion-path-width",
            reps,
            &[1usize, 2, 3, 4].map(|k| (k, workloads::deletion_family(k))),
        ),
        typecheck_series(
            "lemma14/dout-size",
            reps,
            &[2usize, 4, 8, 16].map(|w| (w, workloads::regex_schema_family(w))),
        ),
    ];

    // Automata-kernel series: determinize + minimize on random machines.
    {
        let mut points = Vec::new();
        for n in [8usize, 12, 16, 20] {
            let mut rng = SmallRng::seed_from_u64(11);
            let nfas: Vec<_> = (0..8).map(|_| random_nfa(&mut rng, n, 4, 4 * n)).collect();
            let stats = time_stats(reps, || {
                for nfa in &nfas {
                    std::hint::black_box(determinize(nfa));
                }
            });
            stats.print("kernel/determinize", n);
            points.push(Point { param: n, stats });
        }
        series.push(("kernel/determinize".to_string(), points));
    }
    {
        let mut points = Vec::new();
        for n in [64usize, 128, 256, 512] {
            let mut rng = SmallRng::seed_from_u64(13);
            let dfas: Vec<_> = (0..4).map(|_| random_dfa(&mut rng, n, 4, 0.9)).collect();
            let stats = time_stats(reps, || {
                for dfa in &dfas {
                    std::hint::black_box(minimize(dfa));
                }
            });
            stats.print("kernel/minimize", n);
            points.push(Point { param: n, stats });
        }
        series.push(("kernel/minimize".to_string(), points));
    }

    // Service-layer batch throughput: the same mixed repeated-schema batch
    // (8 schema groups) checked with the schema-compilation cache disabled
    // (cold: every instance recompiles its rules) and enabled (warm). The
    // gap is the cache's win on repeated-schema workloads.
    {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        for n in [128usize, 512, 1024] {
            let items: Vec<BatchItem> = gen::mixed_sources(n, 8, 7)
                .expect("generators print")
                .into_iter()
                .map(|(name, source)| BatchItem::from_source(name, source))
                .collect();
            let stats = time_stats(reps, || {
                let out = run_batch(&items, threads, None);
                assert_eq!(out.tally().2, 0, "no batch item may error");
            });
            stats.print("service/batch-cold", n);
            cold.push(Point { param: n, stats });
            let stats = time_stats(reps, || {
                let cache = SchemaCache::new();
                let out = run_batch(&items, threads, Some(&cache));
                assert_eq!(out.tally().2, 0, "no batch item may error");
            });
            stats.print("service/batch-warm", n);
            warm.push(Point { param: n, stats });
        }

        // Cold *binary* batch: the identical workload shipped as compiled
        // `.xtb` frames (what `xmlta convert --compile` writes) through
        // the batch driver as the CLI runs it — a fresh cache per rep, the
        // same configuration as `batch-warm`, so `cold-bin` vs `warm`
        // isolates the front end (varint decode + ready DFA rules vs text
        // parse + Glushkov) and `cold-bin` vs `cold` is the whole PR-4
        // pipeline against the pre-PR cold path (text, no cache). The
        // mixed workload repeats content across its schema groups, which
        // is exactly what the result memo short-circuits.
        let mut cold_bin = Vec::new();
        {
            use typecheck_core::{Instance, Schema};
            use xmlta_service::{binfmt, parse_instance};
            let compile = |schema: &Schema| match schema {
                Schema::Dtd(d) => Schema::Dtd(d.compile_to_dfas()),
                Schema::Nta(n) => Schema::Nta(n.clone()),
            };
            let bin_items: Vec<BatchItem> = gen::mixed_sources(1024, 8, 7)
                .expect("generators print")
                .into_iter()
                .map(|(name, source)| {
                    let parsed = parse_instance(&source).expect("generated instance parses");
                    let compiled = Instance {
                        input: compile(&parsed.input),
                        output: compile(&parsed.output),
                        alphabet: parsed.alphabet,
                        transducer: parsed.transducer,
                    };
                    let bytes = binfmt::encode_instance(&compiled).expect("instance encodes");
                    BatchItem::from_binary(name, bytes)
                })
                .collect();
            for n in [128usize, 512, 1024] {
                let stats = time_stats(reps, || {
                    let cache = SchemaCache::new();
                    let out = run_batch(&bin_items[..n], threads, Some(&cache));
                    assert_eq!(out.tally().2, 0, "no batch item may error");
                });
                stats.print("service/batch-cold-bin", n);
                cold_bin.push(Point { param: n, stats });
            }
        }
        // A binary path distinguishably slower than the textual one —
        // against either the pre-PR cold path or the like-for-like
        // cached text path — is a pointless binary path: refuse to
        // record it.
        for reference in [&cold, &warm] {
            for (t, b) in reference.iter().zip(&cold_bin) {
                if !clearly_beats(&b.stats, 1.0, &t.stats, noise_floor_ms) {
                    eprintln!(
                        "lemma14_report: service/batch-cold-bin (median {:.1} ms, iqr {:.1}) is \
                         slower than the textual path (median {:.1} ms, iqr {:.1}) beyond the \
                         noise floor at n={} — refusing to record a pointless binary path",
                        b.stats.median, b.stats.iqr, t.stats.median, t.stats.iqr, b.param
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        let (c, b) = (cold.last().expect("sizes"), cold_bin.last().expect("sizes"));
        assert!(
            clearly_beats(&b.stats, 2.0, &c.stats, noise_floor_ms),
            "cold binary batch must be ≥2× faster than the pre-PR cold path at n={}: \
             median {:.1} ms vs {:.1} ms",
            c.param,
            b.stats.median,
            c.stats.median
        );
        series.push(("service/batch-cold".to_string(), cold));
        series.push(("service/batch-cold-bin".to_string(), cold_bin));
        series.push(("service/batch-warm".to_string(), warm));
    }

    // Server throughput on a repeated-schema workload: n layered instances
    // sharing ONE schema group (the schema is identical across all of
    // them; transducers vary). Four ways to check the same inputs:
    //
    //   * oneshot-loop — parse + typecheck each instance with a fresh
    //     cache, emulating a `xmlta typecheck` process per instance
    //     (generously: no process spawn is charged);
    //   * server-cold  — stream the instances as inline `typecheck`
    //     sources to a fresh `xmltad` over a Unix socket;
    //   * server-warm  — register every instance once, then stream
    //     `typecheck`-by-handle requests on the same connection: no
    //     parsing, every per-schema product a cache hit;
    //   * server-pipelined — the same handle-only stream on a protocol-2
    //     connection (pipeline depth 32): the reader admits work to a
    //     per-connection pool while the writer coalesces completion-order
    //     responses, so the sequential read→check→write→flush cycle of
    //     the v1 path overlaps. Verdicts are asserted byte-identical to
    //     the v1 reference per id, and the run refuses to record a
    //     pipelined path slower than the sequential warm one.
    {
        let sources: Vec<(String, String)> = (0..1024u64)
            .map(|v| {
                (
                    format!("layered-{v:05}"),
                    gen::layered_source(7, 4, 4, v).expect("generators print"),
                )
            })
            .collect();
        let (oneshot, cold, warm, pipelined) =
            server_series(&sources, &[128, 512, 1024], reps, noise_floor_ms);

        // Result-memo hits on the same workload: every instance was
        // checked once, so a second batch short-circuits each item on its
        // content fingerprint before any engine runs. This is what a
        // repeated instance costs once the memo is warm — it must land
        // within 1.5× of the registered-handle server path (which still
        // runs the engines per request).
        let mut memo = Vec::new();
        {
            use std::sync::Arc;
            use xmlta_service::parse_instance;
            let threads = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            let prepared: Vec<BatchItem> = sources
                .iter()
                .map(|(name, source)| {
                    let instance = parse_instance(source).expect("generated instance parses");
                    BatchItem::from_prepared(name.clone(), Arc::new(instance))
                })
                .collect();
            for n in [128usize, 512, 1024] {
                let cache = SchemaCache::new();
                let fill = run_batch(&prepared[..n], threads, Some(&cache));
                assert_eq!(fill.tally().2, 0, "no batch item may error");
                let timing = time_stats(reps, || {
                    let out = run_batch(&prepared[..n], threads, Some(&cache));
                    assert_eq!(out.tally().2, 0, "no batch item may error");
                });
                let stats = cache.stats();
                assert!(
                    stats.memo_hits >= reps as u64 * n as u64,
                    "memoized reruns must be all hits at n={n}: {stats:?}"
                );
                timing.print("service/memo-hit", n);
                memo.push(Point {
                    param: n,
                    stats: timing,
                });
            }
            let (m, w) = (memo.last().expect("sizes"), warm.last().expect("sizes"));
            assert!(
                clearly_beats(&m.stats, 1.0 / 1.5, &w.stats, noise_floor_ms),
                "memo hits must land within 1.5× of the warm server path at n={}: \
                 median {:.1} ms vs {:.1} ms",
                m.param,
                m.stats.median,
                w.stats.median
            );
        }
        series.push(("service/oneshot-loop".to_string(), oneshot));
        series.push(("service/server-cold".to_string(), cold));
        series.push(("service/server-warm".to_string(), warm));
        series.push(("service/server-pipelined".to_string(), pipelined));
        series.push(("service/memo-hit".to_string(), memo));
    }

    // Persistent-store cold starts: a ballast fleet (every instance its
    // own compile-heavy schema) checked by a daemon booting on a
    // prewarmed artifact store vs an empty one vs staying warm. The
    // populated-store boot must land ≥3× under the empty-store one at
    // n=1024 — a restart stops being a recompilation event.
    {
        let sources: Vec<(String, String)> = (0..1024u64)
            .map(|v| {
                (
                    format!("ballast-{v:05}"),
                    gen::ballast_source(24, 16, v).expect("generators print"),
                )
            })
            .collect();
        let (empty, populated, warm) =
            server_cold_store_series(&sources, &[128, 512, 1024], reps, noise_floor_ms);
        series.push(("service/server-cold-empty-store".to_string(), empty));
        series.push(("service/server-cold-store".to_string(), populated));
        series.push(("service/server-warm-store".to_string(), warm));
    }

    // Fleet relay: the warm handle-only workload again, but fronted by a
    // supervised 2-shard `xmlta router` over real `xmltad` processes on
    // one shared artifact store, against a single `xmltad` serving the
    // same stream directly. Verdicts must be byte-identical between the
    // arms; the recorded series tracks the relay + process-hop overhead
    // a fleet pays per request. Skipped (with a log line) when the
    // `xmltad` binary is not built next to this benchmark.
    {
        let sources: Vec<(String, String)> = (0..1024u64)
            .map(|v| {
                (
                    format!("routed-{v:05}"),
                    gen::layered_source(7, 4, 4, v).expect("generators print"),
                )
            })
            .collect();
        if let Some(fleet) = router_fleet_series(&sources, &[1024], reps) {
            series.push(("service/router-fleet".to_string(), fleet));
        }
    }

    // Delta-stream batches: a shared-schema fleet shipped as ONE `.xts`
    // stream (schema section once, transducer-only frames after) decoded
    // and checked end to end — the `batch_bin` workload. The stream's
    // wire size must stay well under the per-instance `.xtb` frames for
    // the same fleet (that is the format's whole point; asserted since
    // it is deterministic, unlike 1-core timings).
    {
        use typecheck_core::Instance;
        use xmlta_service::batch::stream_batch_items;
        use xmlta_service::{encode_instance, encode_stream, parse_instance};
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let fleet: Vec<(String, Instance)> = (0..1024u64)
            .map(|v| {
                let source = gen::fleet_source(7, 4, 4, v).expect("generators print");
                (
                    format!("fleet-{v:05}"),
                    parse_instance(&source).expect("generated instance parses"),
                )
            })
            .collect();
        let mut delta = Vec::new();
        for n in [128usize, 512, 1024] {
            let stream = encode_stream(fleet[..n].iter().map(|(name, i)| (name.as_str(), i)))
                .expect("fleet encodes");
            let stats = time_stats(reps, || {
                let cache = SchemaCache::new();
                let items = stream_batch_items(&stream).expect("stream decodes");
                let out = run_batch(&items, threads, Some(&cache));
                assert_eq!(out.tally().2, 0, "no fleet item may error");
            });
            stats.print("service/batch-delta-bin", n);
            if n == 1024 {
                let individual: usize = fleet[..n]
                    .iter()
                    .map(|(_, i)| encode_instance(i).expect("encodes").len())
                    .sum();
                println!(
                    "  (delta stream: {} bytes vs {individual} bytes as individual \
                     .xtb frames at n={n})",
                    stream.len()
                );
                assert!(
                    2 * stream.len() < individual,
                    "the delta stream must stay under half the per-instance frames: \
                     {} vs {individual} bytes",
                    stream.len()
                );
            }
            delta.push(Point { param: n, stats });
        }
        series.push(("service/batch-delta-bin".to_string(), delta));
    }

    // Incremental recheck: an edit script over a sectioned instance served
    // as protocol-v2 `update` frames (the server rechecks only the dirty
    // components against its retained engine) versus shipping the full
    // edited source every step and typechecking it from scratch. The
    // param is the length of the edit script; each step rewrites one
    // section's emission rule with a rhs no earlier version had, so the
    // result memo cannot serve either arm.
    {
        use xmlta_server::proto::{self, Edit};
        use xmlta_server::{Session, Shared};
        use xmlta_service::{json::Json, parse_json};

        const SECTIONS: usize = 64;

        // The sectioned family: `r -> s0 .. s63`, each section `sj`
        // holding `xj*` on both schema sides, and one transducer state
        // per section; `counts[j]` is how many copies of `xj` the rule
        // `(qj, xj)` currently emits (any count typechecks).
        fn sectioned_source(counts: &[usize]) -> String {
            let mut src = String::from("alphabet { r");
            for j in 0..counts.len() {
                let _ = write!(src, " s{j} x{j}");
            }
            src.push_str(" }\n");
            for side in ["input", "output"] {
                let _ = write!(src, "{side} dtd {{\n  start r\n  r ->");
                for j in 0..counts.len() {
                    let _ = write!(src, " s{j}");
                }
                src.push('\n');
                for j in 0..counts.len() {
                    let _ = writeln!(src, "  s{j} -> x{j}*\n  x{j} -> eps");
                }
                src.push_str("}\n");
            }
            src.push_str("transducer {\n  states root p");
            for j in 0..counts.len() {
                let _ = write!(src, " q{j}");
            }
            src.push_str("\n  initial root\n  (root, r) -> r(p)\n");
            for (j, copies) in counts.iter().enumerate() {
                let _ = writeln!(src, "  (p, s{j}) -> s{j}(q{j})");
                let rhs = vec![format!("x{j}"); *copies].join(" ");
                let _ = writeln!(src, "  (q{j}, x{j}) -> {rhs}");
            }
            src.push_str("}\n");
            src
        }

        // Step `k` rewrites section `k % SECTIONS` with a copy count that
        // grows every round, so every version of the instance is distinct.
        let edit_at = |k: usize| Edit::SetRule {
            state: format!("q{}", k % SECTIONS),
            symbol: format!("x{}", k % SECTIONS),
            rhs: vec![format!("x{}", k % SECTIONS); k / SECTIONS + 2].join(" "),
        };
        let parsed_ok = |reply: &str| -> Json {
            let json = parse_json(reply).expect("reply is JSON");
            assert_eq!(
                json.get("ok"),
                Some(&Json::Bool(true)),
                "frame accepted: {reply}"
            );
            json
        };

        let sizes = [128usize, 512, 1024];
        let max_n = *sizes.last().expect("at least one size");
        // Version k's full source, for the from-scratch arm (0 = base).
        let sources: Vec<String> = {
            let mut counts = vec![1usize; SECTIONS];
            let mut out = vec![sectioned_source(&counts)];
            for k in 0..max_n {
                counts[k % SECTIONS] = k / SECTIONS + 2;
                out.push(sectioned_source(&counts));
            }
            out
        };

        let mut incremental = Vec::new();
        let mut fromscratch = Vec::new();
        for n in sizes {
            let incr_stats = time_stats(reps, || {
                let mut session = Session::new(Shared::new());
                let _ = session.handle_frame(r#"{"id": 0, "op": "hello", "max_v": 2}"#);
                let (reply, _) = session.handle_frame(&proto::req_register(0, &sources[0]));
                let mut handle = parsed_ok(&reply)
                    .get("handle")
                    .and_then(|j| j.as_str())
                    .expect("register returns a handle")
                    .to_string();
                for k in 0..n {
                    let req = proto::req_update(k as u64 + 1, &handle, &edit_at(k));
                    let (reply, _) = session.handle_frame(&req);
                    let json = parsed_ok(&reply);
                    assert_eq!(
                        json.get("status").and_then(|j| j.as_str()),
                        Some("typechecks"),
                        "every edit keeps the instance well-typed"
                    );
                    handle = json
                        .get("handle")
                        .and_then(|j| j.as_str())
                        .expect("update returns the successor handle")
                        .to_string();
                }
            });
            incr_stats.print("service/update-incremental", n);
            let scratch_stats = time_stats(reps, || {
                let mut session = Session::new(Shared::new());
                for (k, source) in sources.iter().enumerate().take(n + 1).skip(1) {
                    let (reply, _) =
                        session.handle_frame(&proto::req_typecheck_source(k as u64, source));
                    let json = parsed_ok(&reply);
                    assert_eq!(
                        json.get("status").and_then(|j| j.as_str()),
                        Some("typechecks"),
                        "every edited version is well-typed"
                    );
                }
            });
            scratch_stats.print("service/update-fromscratch", n);
            if n == max_n {
                assert!(
                    clearly_beats(&incr_stats, 1.0, &scratch_stats, noise_floor_ms),
                    "the incremental update path must not be slower than from-scratch \
                     re-registration at n={n}: median {:.1} ms vs {:.1} ms — refusing \
                     to record a pointless incremental engine",
                    incr_stats.median,
                    scratch_stats.median
                );
            }
            incremental.push(Point {
                param: n,
                stats: incr_stats,
            });
            fromscratch.push(Point {
                param: n,
                stats: scratch_stats,
            });
        }
        series.push(("service/update-incremental".to_string(), incremental));
        series.push(("service/update-fromscratch".to_string(), fromscratch));
    }

    // Serialize this run. `ms` stays the median (the field every older
    // run carries and trend tooling reads); `min`/`iqr`/`reps` record
    // the distribution behind it.
    let mut run = String::new();
    let _ = write!(
        run,
        "    {{\n      \"label\": \"{label}\",\n      \
         \"noise_floor_ms\": {noise_floor_ms:.3},\n      \"series\": {{\n"
    );
    for (i, (name, points)) in series.iter().enumerate() {
        let body: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "{{\"param\": {}, \"ms\": {:.3}, \"min\": {:.3}, \"iqr\": {:.3}, \"reps\": {}}}",
                    p.param, p.stats.median, p.stats.min, p.stats.iqr, p.stats.reps
                )
            })
            .collect();
        let comma = if i + 1 < series.len() { "," } else { "" };
        let _ = writeln!(run, "        \"{name}\": [{}]{comma}", body.join(", "));
    }
    let _ = write!(run, "      }}\n    }}");

    // Merge at write time against a *fresh* read of the report, and write
    // atomically: runs appended while this one was measuring survive, and
    // a crash mid-write cannot truncate the history.
    match report::append_run(Path::new(&path), report::Run { label, body: run }) {
        Ok(total) => {
            println!("wrote {path} ({total} run(s))");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lemma14_report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Measures the `service/{oneshot-loop,server-cold,server-warm,
/// server-pipelined}` series on a shared-schema workload, checking on the
/// way that warm responses are byte-identical between a 1-connection and a
/// 4-connection run, that pipelined (protocol 2, depth 32) verdicts match
/// the sequential ones id for id, and that the warm path beats both
/// baselines — and the pipelined path beats the warm one — at the largest
/// size (distribution-aware: medians beyond the noise margin).
fn server_series(
    sources: &[(String, String)],
    sizes: &[usize],
    reps: usize,
    noise_floor_ms: f64,
) -> (Vec<Point>, Vec<Point>, Vec<Point>, Vec<Point>) {
    use xmlta_server::proto;
    use xmlta_server::{serve_unix, Client, ServerConfig, Shared};
    use xmlta_service::{parse_instance, typecheck_cached};

    let socket = std::env::temp_dir().join(format!("xmltad-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    let connect = |path: &std::path::Path| -> Client {
        for _ in 0..500 {
            if let Ok(client) = Client::connect(path) {
                return client;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("daemon never bound {}", path.display());
    };
    /// Streams `frames` over `client` with a bounded pipelining window
    /// (unbounded pipelining deadlocks once the response direction's
    /// socket buffer fills and the server blocks on a write), asserting
    /// every response is `ok`, and returns the transcript.
    fn stream(client: &mut Client, frames: &[String]) -> Vec<String> {
        const WINDOW: usize = 32;
        let mut responses = Vec::with_capacity(frames.len());
        let recv = |client: &mut Client| {
            let line = client.recv().expect("recv").expect("response");
            assert!(line.contains("\"ok\":true"), "request failed: {line}");
            line
        };
        for (i, frame) in frames.iter().enumerate() {
            client.send(frame).expect("send");
            if i + 1 > WINDOW {
                responses.push(recv(client));
            }
        }
        while responses.len() < frames.len() {
            responses.push(recv(client));
        }
        responses
    }

    let mut oneshot = Vec::new();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut pipelined = Vec::new();
    for &n in sizes {
        let slice = &sources[..n];

        // Baseline: one fresh cache + parse per instance.
        let oneshot_stats = time_stats(reps, || {
            for (_, source) in slice {
                let cache = SchemaCache::new();
                let instance = parse_instance(source).expect("generated instance parses");
                let outcome = typecheck_cached(&cache, &instance).expect("engine runs");
                assert!(outcome.type_checks());
            }
        });
        oneshot_stats.print("service/oneshot-loop", n);
        oneshot.push(Point {
            param: n,
            stats: oneshot_stats.clone(),
        });

        // Cold server: fresh daemon per rep, inline sources streamed over
        // one connection.
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let shared = Shared::new();
            let daemon = {
                let path = socket.clone();
                std::thread::spawn(move || {
                    serve_unix(&path, shared, ServerConfig::default()).expect("clean daemon exit")
                })
            };
            let mut client = connect(&socket);
            let frames: Vec<String> = slice
                .iter()
                .enumerate()
                .map(|(i, (_, source))| proto::req_typecheck_source(i as u64, source))
                .collect();
            let start = Instant::now();
            stream(&mut client, &frames);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
            client
                .roundtrip(&proto::req_shutdown(u64::MAX))
                .expect("shutdown");
            drop(client);
            daemon.join().expect("daemon thread");
        }
        let cold_stats = summarize(samples);
        cold_stats.print("service/server-cold", n);
        cold.push(Point {
            param: n,
            stats: cold_stats.clone(),
        });

        // Warm server: one daemon; register everything once on a pinned
        // connection, then time handle-only streams on that connection.
        let shared = Shared::new();
        let daemon = {
            let path = socket.clone();
            let shared = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || {
                serve_unix(&path, shared, ServerConfig::default()).expect("clean daemon exit")
            })
        };
        let mut client = connect(&socket);
        let register_frames: Vec<String> = slice
            .iter()
            .enumerate()
            .map(|(i, (_, source))| proto::req_register(i as u64, source))
            .collect();
        let handles: Vec<String> = stream(&mut client, &register_frames)
            .iter()
            .map(|line| {
                let response = xmlta_service::parse_json(line).expect("response is JSON");
                response
                    .get("handle")
                    .and_then(xmlta_service::Json::as_str)
                    .expect("register returns a handle")
                    .to_string()
            })
            .collect();
        let typecheck_frames: Vec<String> = handles
            .iter()
            .enumerate()
            .map(|(i, handle)| proto::req_typecheck_handle(i as u64, handle))
            .collect();
        let mut samples = Vec::with_capacity(reps);
        let mut reference: Vec<String> = Vec::new();
        for _ in 0..reps {
            let start = Instant::now();
            reference = stream(&mut client, &typecheck_frames);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let warm_stats = summarize(samples);
        warm_stats.print("service/server-warm", n);
        warm.push(Point {
            param: n,
            stats: warm_stats.clone(),
        });

        // Pipelined v2: a fresh connection on the same warm daemon
        // negotiates depth 32, re-registers every handle (hash lookups,
        // sync ops), then ships the whole typecheck stream in batched
        // writes before reading a single response — the v2 server keeps
        // reading while its writer catches up, so the client can batch
        // its syscalls the way a real fleet client would. Responses
        // arrive in completion order and are verified id-for-id against
        // the sequential reference after the clock stops. Extra reps
        // (vs the sequential series) because the accept gate below
        // compares medians on a timing-noisy 1-core container.
        let mut pclient = connect(&socket);
        let hello = pclient
            .roundtrip(&proto::req_hello_v2(u64::MAX, 2, Some(32)))
            .expect("hello");
        assert!(
            hello.contains("\"protocol\":2") && hello.contains("\"pipeline\":32"),
            "v2 negotiation failed: {hello}"
        );
        stream(&mut pclient, &register_frames);
        let mut samples = Vec::with_capacity(reps + 2);
        let mut last_lines: Vec<String> = Vec::new();
        for _ in 0..reps + 2 {
            let start = Instant::now();
            pclient.send_all(&typecheck_frames).expect("send");
            last_lines = typecheck_frames
                .iter()
                .map(|_| pclient.recv().expect("recv").expect("response"))
                .collect();
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let pipelined_stats = summarize(samples);
        pipelined_stats.print("service/server-pipelined", n);
        pipelined.push(Point {
            param: n,
            stats: pipelined_stats.clone(),
        });
        // Verdict identity: the completion-order responses, re-ordered by
        // id, are byte-identical to the sequential v1 transcript.
        let mut by_id: Vec<Option<String>> = vec![None; n];
        for line in last_lines {
            let response = xmlta_service::parse_json(&line).expect("response is JSON");
            let id = response
                .get("id")
                .and_then(xmlta_service::Json::as_u64)
                .expect("typecheck responses echo numeric ids") as usize;
            assert!(by_id[id].replace(line).is_none(), "id {id} answered twice");
        }
        let reordered: Vec<String> = by_id.into_iter().map(|l| l.expect("every id")).collect();
        assert_eq!(
            reordered, reference,
            "pipelined verdicts differ from the sequential v1 run at n={n}"
        );
        drop(pclient);

        // Acceptance: the same requests over 4 connections (each taking
        // every 4th instance, re-registering its handles first — a hash
        // lookup) must produce byte-identical responses.
        let merged: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4usize)
                .map(|c| {
                    let socket = &socket;
                    let slice = &slice;
                    let typecheck_frames = &typecheck_frames;
                    scope.spawn(move || {
                        let mut client = connect(socket);
                        let my_registers: Vec<String> = slice
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % 4 == c)
                            .map(|(i, (_, source))| proto::req_register(i as u64, source))
                            .collect();
                        stream(&mut client, &my_registers);
                        let my_typechecks: Vec<String> = typecheck_frames
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % 4 == c)
                            .map(|(_, f)| f.clone())
                            .collect();
                        stream(&mut client, &my_typechecks)
                    })
                })
                .collect();
            let per_conn: Vec<Vec<String>> =
                workers.into_iter().map(|w| w.join().unwrap()).collect();
            (0..n).map(|i| per_conn[i % 4][i / 4].clone()).collect()
        });
        assert_eq!(
            merged, reference,
            "N-connection responses differ from the 1-connection run at n={n}"
        );

        client
            .roundtrip(&proto::req_shutdown(u64::MAX))
            .expect("shutdown");
        drop(client);
        daemon.join().expect("daemon thread");

        if n == *sizes.last().expect("at least one size") {
            assert!(
                clearly_beats(&warm_stats, 1.0, &cold_stats, noise_floor_ms)
                    && clearly_beats(&warm_stats, 1.0, &oneshot_stats, noise_floor_ms),
                "warm server path must beat cold streaming (median {:.1} ms) and \
                 one-shot loops (median {:.1} ms); got median {:.1} ms (iqr {:.1})",
                cold_stats.median,
                oneshot_stats.median,
                warm_stats.median,
                warm_stats.iqr
            );
            assert!(
                clearly_beats(&pipelined_stats, 1.0, &warm_stats, noise_floor_ms),
                "the pipelined v2 path must beat the sequential warm path at \
                 n={n}: median {:.1} ms vs {:.1} ms — refusing to record a \
                 pointless pipeline",
                pipelined_stats.median,
                warm_stats.median
            );
        }
    }
    (oneshot, cold, warm, pipelined)
}

/// Measures the `service/server-cold-store` trio: daemon cold starts on a
/// populated artifact store vs an empty one vs an in-memory-warm daemon,
/// on a compile-dominated ballast workload (every instance carries its own
/// schema, so a boot's cost is dominated by schema compiles — exactly the
/// work a populated store turns into validate-and-adopt loads). Transcripts
/// are asserted byte-identical across all three arms, the populated-store
/// arm must adopt everything it checks (`store_hits > 0`, zero writes, zero
/// corrupt), and at the largest size the populated-store cold boot must run
/// ≥3× faster than the empty-store one — the number that makes a restart
/// warm (distribution-aware: medians beyond the noise margin).
fn server_cold_store_series(
    sources: &[(String, String)],
    sizes: &[usize],
    reps: usize,
    noise_floor_ms: f64,
) -> (Vec<Point>, Vec<Point>, Vec<Point>) {
    use std::sync::Arc;
    use xmlta_server::proto;
    use xmlta_server::{serve_unix, Client, ServerConfig, Shared};
    use xmlta_service::cache::{CacheStats, DEFAULT_MEMO_CAPACITY};
    use xmlta_service::{parse_instance, warm_instance, ArtifactBackend};
    use xmlta_store::Store;

    let socket =
        std::env::temp_dir().join(format!("xmltad-bench-store-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let connect = |path: &std::path::Path| -> Client {
        for _ in 0..500 {
            if let Ok(client) = Client::connect(path) {
                return client;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("daemon never bound {}", path.display());
    };
    /// Windowed pipelining as in [`server_series`]: every response `ok`.
    fn stream(client: &mut Client, frames: &[String]) -> Vec<String> {
        const WINDOW: usize = 32;
        let mut responses = Vec::with_capacity(frames.len());
        let recv = |client: &mut Client| {
            let line = client.recv().expect("recv").expect("response");
            assert!(line.contains("\"ok\":true"), "request failed: {line}");
            line
        };
        for (i, frame) in frames.iter().enumerate() {
            client.send(frame).expect("send");
            if i + 1 > WINDOW {
                responses.push(recv(client));
            }
        }
        while responses.len() < frames.len() {
            responses.push(recv(client));
        }
        responses
    }

    // Populate the shared store dir once, through the same primitive
    // `xmlta store prewarm` uses (compile ahead of deployment).
    let store_dir = std::env::temp_dir().join(format!("xmltad-bench-store-{}", std::process::id()));
    let empty_dir =
        std::env::temp_dir().join(format!("xmltad-bench-store-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    {
        let store = Arc::new(Store::open(&store_dir).expect("store opens"));
        let mut cache = SchemaCache::new();
        cache.set_store(store as Arc<dyn ArtifactBackend>);
        for (_, source) in sources {
            let instance = parse_instance(source).expect("ballast instance parses");
            warm_instance(&cache, &instance);
        }
        assert!(
            cache.stats().store_writes > 0,
            "prewarm populated the store"
        );
    }

    let mut empty = Vec::new();
    let mut populated = Vec::new();
    let mut warm = Vec::new();
    for &n in sizes {
        let frames: Vec<String> = sources[..n]
            .iter()
            .enumerate()
            .map(|(i, (_, source))| proto::req_typecheck_source(i as u64, source))
            .collect();

        // Boots a fresh daemon on `store`, streams the frames once, shuts
        // down; returns the stream time, transcript, and cache counters.
        let boot_and_stream = |store: Arc<Store>| -> (f64, Vec<String>, CacheStats) {
            let shared = Shared::with_store(
                1024,
                DEFAULT_MEMO_CAPACITY,
                Some(store as Arc<dyn ArtifactBackend>),
            );
            let daemon = {
                let path = socket.clone();
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    serve_unix(&path, shared, ServerConfig::default()).expect("clean daemon exit")
                })
            };
            let mut client = connect(&socket);
            let start = Instant::now();
            let transcript = stream(&mut client, &frames);
            let millis = start.elapsed().as_secs_f64() * 1e3;
            client
                .roundtrip(&proto::req_shutdown(u64::MAX))
                .expect("shutdown");
            drop(client);
            daemon.join().expect("daemon thread");
            (millis, transcript, shared.cache().stats())
        };

        // Empty store: the first-ever boot — every schema compiles and is
        // written behind. A fresh directory per rep keeps it first-ever.
        let mut samples = Vec::with_capacity(reps);
        let mut reference: Vec<String> = Vec::new();
        for _ in 0..reps {
            let _ = std::fs::remove_dir_all(&empty_dir);
            let store = Arc::new(Store::open(&empty_dir).expect("store opens"));
            let (millis, transcript, stats) = boot_and_stream(store);
            assert!(stats.store_writes > 0, "empty-store boot writes behind");
            assert_eq!(stats.store_hits, 0, "nothing to adopt from an empty store");
            samples.push(millis);
            reference = transcript;
        }
        let _ = std::fs::remove_dir_all(&empty_dir);
        let empty_stats = summarize(samples);
        empty_stats.print("service/server-cold-empty-store", n);
        empty.push(Point {
            param: n,
            stats: empty_stats.clone(),
        });

        // Populated store: a restart — same cold memory, but every compile
        // is served from disk as a validate-and-adopt.
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let store = Arc::new(Store::open(&store_dir).expect("store reopens"));
            let (millis, transcript, stats) = boot_and_stream(store);
            assert!(stats.store_hits > 0, "populated-store boot adopts");
            assert_eq!(stats.store_writes, 0, "a populated store recompiled");
            assert_eq!(stats.store_corrupt, 0, "a populated store read corrupt");
            assert_eq!(
                transcript, reference,
                "populated-store verdicts differ from the empty-store run at n={n}"
            );
            samples.push(millis);
        }
        let store_stats = summarize(samples);
        store_stats.print("service/server-cold-store", n);
        populated.push(Point {
            param: n,
            stats: store_stats.clone(),
        });

        // Warm daemon: one boot (on the populated store), one unmeasured
        // pass to heat the in-memory layers, then measured passes.
        let store = Arc::new(Store::open(&store_dir).expect("store reopens"));
        let shared = Shared::with_store(
            1024,
            DEFAULT_MEMO_CAPACITY,
            Some(store as Arc<dyn ArtifactBackend>),
        );
        let daemon = {
            let path = socket.clone();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                serve_unix(&path, shared, ServerConfig::default()).expect("clean daemon exit")
            })
        };
        let mut client = connect(&socket);
        let mut transcript = stream(&mut client, &frames);
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            transcript = stream(&mut client, &frames);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        assert_eq!(
            transcript, reference,
            "warm verdicts differ from the cold runs at n={n}"
        );
        client
            .roundtrip(&proto::req_shutdown(u64::MAX))
            .expect("shutdown");
        drop(client);
        daemon.join().expect("daemon thread");
        let warm_stats = summarize(samples);
        warm_stats.print("service/server-warm-store", n);
        warm.push(Point {
            param: n,
            stats: warm_stats.clone(),
        });

        if n == *sizes.last().expect("at least one size") {
            assert!(
                clearly_beats(&store_stats, 3.0, &empty_stats, noise_floor_ms),
                "a populated store must make cold start ≥3× faster than the \
                 empty-store path at n={n}: median {:.1} ms vs {:.1} ms \
                 — refusing to record a store that does not pay for itself",
                store_stats.median,
                empty_stats.median
            );
            assert!(
                clearly_beats(&warm_stats, 1.0, &store_stats, noise_floor_ms),
                "the in-memory warm path must not lose to a store-cold boot \
                 at n={n}: median {:.1} ms vs {:.1} ms",
                warm_stats.median,
                store_stats.median
            );
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    (empty, populated, warm)
}

/// Measures the `service/router-fleet` series: the warm handle-only
/// workload of [`server_series`], relayed through a supervised 2-shard
/// `xmlta router` fronting real `xmltad` processes that share one
/// artifact store, against a single `xmltad` process serving the same
/// stream directly. The router's contract is identity, not speed:
/// verdicts are asserted byte-identical per id to the single-daemon
/// reference, and the fleet must still report both shards reachable
/// when the clock stops. No win gate is applied — on a 1-core harness
/// there is no parallelism for the fleet to win back, so the series
/// exists to watch the relay overhead PR over PR, not to assert a
/// speedup. Returns `None` (with a log line) when the `xmltad` binary
/// is not built next to this benchmark, e.g. under a bare
/// `cargo run -p xmlta-bench`.
fn router_fleet_series(
    sources: &[(String, String)],
    sizes: &[usize],
    reps: usize,
) -> Option<Vec<Point>> {
    use xmlta_server::proto;
    use xmlta_server::{Bound, Client, Router, RouterConfig};

    let xmltad = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("xmltad")))
        .filter(|path| path.is_file());
    let Some(xmltad) = xmltad else {
        println!("  service/router-fleet              skipped: no xmltad binary beside this bench");
        return None;
    };

    let tag = std::process::id();
    let single_sock = std::env::temp_dir().join(format!("xmlta-bench-fleet-single-{tag}.sock"));
    let front_sock = std::env::temp_dir().join(format!("xmlta-bench-fleet-front-{tag}.sock"));
    let store_dir = std::env::temp_dir().join(format!("xmlta-bench-fleet-store-{tag}"));
    let runtime_dir = std::env::temp_dir().join(format!("xmlta-bench-fleet-rt-{tag}"));
    let _ = std::fs::remove_file(&single_sock);
    let _ = std::fs::remove_file(&front_sock);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&runtime_dir);

    let connect = |path: &std::path::Path| -> Client {
        for _ in 0..500 {
            if let Ok(client) = Client::connect(path) {
                return client;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("daemon never bound {}", path.display());
    };
    /// Windowed pipelining as in [`server_series`]: every response `ok`.
    fn stream(client: &mut Client, frames: &[String]) -> Vec<String> {
        const WINDOW: usize = 32;
        let mut responses = Vec::with_capacity(frames.len());
        let recv = |client: &mut Client| {
            let line = client.recv().expect("recv").expect("response");
            assert!(line.contains("\"ok\":true"), "request failed: {line}");
            line
        };
        for (i, frame) in frames.iter().enumerate() {
            client.send(frame).expect("send");
            if i + 1 > WINDOW {
                responses.push(recv(client));
            }
        }
        while responses.len() < frames.len() {
            responses.push(recv(client));
        }
        responses
    }
    /// Registers every source on `client`, heats the handle path with
    /// one unmeasured stream, then times `reps` handle-only streams.
    /// Returns the samples and the last transcript.
    fn measure(
        client: &mut Client,
        slice: &[(String, String)],
        reps: usize,
    ) -> (Vec<f64>, Vec<String>) {
        use xmlta_server::proto;
        let register_frames: Vec<String> = slice
            .iter()
            .enumerate()
            .map(|(i, (_, source))| proto::req_register(i as u64, source))
            .collect();
        let handles: Vec<String> = stream(client, &register_frames)
            .iter()
            .map(|line| {
                let response = xmlta_service::parse_json(line).expect("response is JSON");
                response
                    .get("handle")
                    .and_then(xmlta_service::Json::as_str)
                    .expect("register returns a handle")
                    .to_string()
            })
            .collect();
        let frames: Vec<String> = handles
            .iter()
            .enumerate()
            .map(|(i, handle)| proto::req_typecheck_handle(i as u64, handle))
            .collect();
        let mut transcript = stream(client, &frames);
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            transcript = stream(client, &frames);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        (samples, transcript)
    }

    let mut fleet = Vec::new();
    for &n in sizes {
        let slice = &sources[..n];

        // Reference arm: one `xmltad` process, the direct path. Spawned
        // as a real process (not in-process `serve_unix`) so both arms
        // pay the same socket-to-daemon costs and the gap between the
        // series is the relay itself.
        let mut child = std::process::Command::new(&xmltad)
            .arg("--socket")
            .arg(&single_sock)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn xmltad");
        let mut client = connect(&single_sock);
        let (samples, reference) = measure(&mut client, slice, reps);
        client
            .roundtrip(&proto::req_shutdown(u64::MAX))
            .expect("shutdown");
        drop(client);
        let status = child.wait().expect("xmltad exits");
        assert!(status.success(), "single xmltad exited dirty: {status}");
        let single_stats = summarize(samples);
        single_stats.print("service/single-daemon (ref)", n);

        // Fleet arm: the same stream through the router front-end.
        let router = Router::spawn(RouterConfig {
            shards: 2,
            store: Some(store_dir.clone()),
            shard_command: Some(vec![xmltad.display().to_string()]),
            runtime_dir: Some(runtime_dir.clone()),
            quiet: true,
            ..RouterConfig::default()
        })
        .expect("fleet boots");
        let bound = Bound::bind(Some(&front_sock), None).expect("bind router front");
        let serve = {
            let router = std::sync::Arc::clone(&router);
            std::thread::spawn(move || bound.serve_router(router))
        };
        let mut client = connect(&front_sock);
        let (samples, transcript) = measure(&mut client, slice, reps);
        assert_eq!(
            transcript, reference,
            "fleet verdicts differ from the single daemon at n={n}"
        );
        let stats = client
            .roundtrip(&proto::req_stats(u64::MAX - 1))
            .expect("stats");
        assert!(
            stats.contains("\"shards_reachable\":2"),
            "fleet degraded during the bench: {stats}"
        );
        client
            .roundtrip(&proto::req_shutdown(u64::MAX))
            .expect("shutdown");
        drop(client);
        serve
            .join()
            .expect("router thread")
            .expect("clean router exit");
        let fleet_stats = summarize(samples);
        fleet_stats.print("service/router-fleet", n);
        println!(
            "    relay overhead at n={n}: ×{:.2} over the single daemon (medians)",
            fleet_stats.median / single_stats.median.max(1e-9)
        );
        fleet.push(Point {
            param: n,
            stats: fleet_stats,
        });
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&runtime_dir);
    let _ = std::fs::remove_file(&single_sock);
    Some(fleet)
}
