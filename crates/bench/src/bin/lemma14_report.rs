//! Emits `BENCH_lemma14.json`: wall-clock timings of the series the
//! repository benchmark (`perfbench/`, which measures the `xmltad` service
//! end to end) does not run, so the engine trajectory is tracked PR over
//! PR:
//!
//! * `lemma14/*` — the Lemma 14 engine over the scaling sweeps of
//!   [`xmlta_bench::LEMMA14_SWEEPS`] (shared with the `lemma14_scaling`
//!   criterion bench);
//! * `kernel/{determinize,minimize}` — the automata kernels on random
//!   machines;
//! * `service/update-{incremental,fromscratch}` — an edit script served as
//!   protocol-v2 `update` frames on an in-process `Session`, against
//!   typechecking every edited source from scratch. The run exits nonzero
//!   unless the incremental path clearly beats from-scratch at 1024 edits.
//!
//! Every point is a *distribution*, not a sample: `--reps N` (default 5,
//! minimum 3) repeats per measurement, with the min, median, and
//! interquartile range recorded per point. A calibration probe at startup
//! measures this host's timing noise floor, stored with the run; the
//! refusal guard compares medians with a margin of the two IQRs or that
//! floor, whichever is larger — a run is refused only when the regression
//! is distinguishable from noise.
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
use xmlta_bench::{report, Sweep, LEMMA14_SWEEPS};
use xmlta_hardness::workloads;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The wall-clock distribution of one measurement, in milliseconds.
struct Summary {
    min: f64,
    median: f64,
    /// Interquartile range — the spread the refusal guard compares
    /// median gaps against.
    iqr: f64,
    reps: usize,
}

/// One measured series point.
struct Point {
    param: usize,
    stats: Summary,
}

/// Times `reps` runs of `f` and summarizes the distribution.
fn time_stats(reps: usize, mut f: impl FnMut()) -> Summary {
    assert!(reps >= 3, "a distribution needs at least 3 reps");
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    Summary {
        min: samples[0],
        median: q(0.5),
        iqr: q(0.75) - q(0.25),
        reps,
    }
}

/// Times `f` as the point `param` of series `name` and prints it.
fn point(name: &str, param: usize, reps: usize, f: impl FnMut()) -> Point {
    let stats = time_stats(reps, f);
    println!(
        "  {name:<28} {param:>4}: {:>9.3} ms  (min {:.3}, iqr {:.3}, n={})",
        stats.median, stats.min, stats.iqr, stats.reps
    );
    Point { param, stats }
}

/// Distribution-aware refusal guard: does `a` beat `b` by more than the
/// measurement noise? Medians are compared with a margin of the two
/// spreads (IQRs) or the host's calibrated noise floor, whichever is
/// larger — a single unlucky sample can neither fail nor pass the gate.
fn clearly_beats(a: &Summary, b: &Summary, floor_ms: f64) -> bool {
    a.median <= b.median + (a.iqr + b.iqr).max(floor_ms)
}

fn sweep_series(sweep: &Sweep, reps: usize) -> (&'static str, Vec<Point>) {
    let points = sweep
        .params
        .iter()
        .map(|&param| {
            let w = (sweep.family)(param);
            point(sweep.name, param, reps, || {
                let outcome = typecheck(&w.instance).expect("engine runs");
                assert_eq!(outcome.type_checks(), w.expect_typechecks, "{}", w.name);
            })
        })
        .collect();
    (sweep.name, points)
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

    // Refuse a report we cannot merge with *before* spending time
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
    // indistinguishable here, and the refusal guard treats them so.
    let noise_floor_ms = {
        let w = workloads::filtering_family(8);
        let probe = time_stats(15, || {
            let outcome = typecheck(&w.instance).expect("engine runs");
            assert_eq!(outcome.type_checks(), w.expect_typechecks, "{}", w.name);
        });
        (2.0 * probe.iqr).max(0.1)
    };
    println!("  noise floor: {noise_floor_ms:.3} ms (15 calibration reps)");

    let mut series: Vec<(&str, Vec<Point>)> = LEMMA14_SWEEPS
        .iter()
        .map(|sweep| sweep_series(sweep, reps))
        .collect();

    // Automata-kernel series: determinize + minimize on random machines.
    let name = "kernel/determinize";
    let points = [8usize, 12, 16, 20].map(|n| {
        let mut rng = SmallRng::seed_from_u64(11);
        let nfas: Vec<_> = (0..8).map(|_| random_nfa(&mut rng, n, 4, 4 * n)).collect();
        point(name, n, reps, || {
            for nfa in &nfas {
                std::hint::black_box(determinize(nfa));
            }
        })
    });
    series.push((name, points.into()));
    let name = "kernel/minimize";
    let points = [64usize, 128, 256, 512].map(|n| {
        let mut rng = SmallRng::seed_from_u64(13);
        let dfas: Vec<_> = (0..4).map(|_| random_dfa(&mut rng, n, 4, 0.9)).collect();
        point(name, n, reps, || {
            for dfa in &dfas {
                std::hint::black_box(minimize(dfa));
            }
        })
    });
    series.push((name, points.into()));

    series.extend(update_series(reps, noise_floor_ms));

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

/// Incremental recheck: an edit script over a sectioned instance served
/// as protocol-v2 `update` frames (the server rechecks only the dirty
/// components against its retained engine) versus shipping the full
/// edited source every step and typechecking it from scratch. The param
/// is the length of the edit script; each step rewrites one section's
/// emission rule with a rhs no earlier version had, so the result memo
/// cannot serve either arm. Panics (a nonzero exit) when incremental does
/// not clearly beat from-scratch at the largest size.
fn update_series(reps: usize, noise_floor_ms: f64) -> [(&'static str, Vec<Point>); 2] {
    use xmlta_server::proto::{self, Edit};
    use xmlta_server::{Session, Shared};
    use xmlta_service::{json::Json, parse_json};

    const SECTIONS: usize = 64;

    // The sectioned family: `r -> s0 .. s63`, each section `sj` holding
    // `xj*` on both schema sides, and one transducer state per section;
    // `counts[j]` is how many copies of `xj` the rule `(qj, xj)` currently
    // emits (any count typechecks).
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
    let field = |json: &Json, key: &str| -> String {
        let value = json.get(key).and_then(Json::as_str);
        value
            .unwrap_or_else(|| panic!("reply has a `{key}`"))
            .to_string()
    };

    let sizes = [128usize, 512, 1024];
    let max_n = sizes[sizes.len() - 1];
    // Version k's full source, for the from-scratch arm (0 = base).
    let mut counts = vec![1usize; SECTIONS];
    let mut sources = vec![sectioned_source(&counts)];
    for k in 0..max_n {
        counts[k % SECTIONS] = k / SECTIONS + 2;
        sources.push(sectioned_source(&counts));
    }

    let (incr_name, scratch_name) = ("service/update-incremental", "service/update-fromscratch");
    let mut incremental = Vec::new();
    let mut fromscratch = Vec::new();
    for n in sizes {
        let incr = point(incr_name, n, reps, || {
            let mut session = Session::new(Shared::new());
            let _ = session.handle_frame(r#"{"id": 0, "op": "hello", "max_v": 2}"#);
            let (reply, _) = session.handle_frame(&proto::req_register(0, &sources[0]));
            let mut handle = field(&parsed_ok(&reply), "handle");
            for k in 0..n {
                let req = proto::req_update(k as u64 + 1, &handle, &edit_at(k));
                let json = parsed_ok(&session.handle_frame(&req).0);
                let status = field(&json, "status");
                assert_eq!(
                    status, "typechecks",
                    "every edit keeps the instance well-typed"
                );
                handle = field(&json, "handle");
            }
        });
        let scratch = point(scratch_name, n, reps, || {
            let mut session = Session::new(Shared::new());
            for (k, source) in sources.iter().enumerate().take(n + 1).skip(1) {
                let req = proto::req_typecheck_source(k as u64, source);
                let status = field(&parsed_ok(&session.handle_frame(&req).0), "status");
                assert_eq!(status, "typechecks", "every edited version is well-typed");
            }
        });
        if n == max_n {
            assert!(
                clearly_beats(&incr.stats, &scratch.stats, noise_floor_ms),
                "the incremental update path must not be slower than from-scratch \
                 re-registration at n={n}: median {:.1} ms vs {:.1} ms — refusing \
                 to record a pointless incremental engine",
                incr.stats.median,
                scratch.stats.median
            );
        }
        incremental.push(incr);
        fromscratch.push(scratch);
    }
    [(incr_name, incremental), (scratch_name, fromscratch)]
}
