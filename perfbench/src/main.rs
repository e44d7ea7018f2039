//! The repository benchmark: drives real `xmltad` / `xmlta router`
//! processes with one closed-loop client, checks every verdict against a
//! known answer, and prints the end-to-end metrics of one workload — or,
//! with `--trace 1`, the per-layer budget from a traced in-process replay
//! of the same inputs.
//!
//! ```text
//! perfbench --xmltad PATH --xmlta PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! `perfbench/run.py` builds the binaries and passes their paths.

mod check;
mod fixture;
mod inputs;
mod load;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Args, Report};

/// Workload names, as in `BENCHMARK.json`.
const WORKLOADS: [&str; 4] = [
    "warm-handles",
    "cold-mixed",
    "edit-stream",
    "routed-handles",
];

/// End-to-end metrics: name and unit, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("server_cpu_ms_per_kverdict", "ms"),
    ("server_peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, as in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.transport_us", "us"),
    ("proto.parse_us", "us"),
    ("proto.frame_kb", "kB"),
    ("binfmt.decode_us", "us"),
    ("state.register_us", "us"),
    ("state.apply_edit_us", "us"),
    ("print.instance_us", "us"),
    ("session.resolve_us", "us"),
    ("cache.fingerprint_us", "us"),
    ("cache.memo_lookup_us", "us"),
    ("cache.memo_insert_us", "us"),
    ("cache.component_fp_us", "us"),
    ("cache.compile_us", "us"),
    ("cache.memo_hit_ratio", "frac"),
    ("cache.schema_hit_ratio", "frac"),
    ("cache.rule_hit_ratio", "frac"),
    ("cache.bout_hit_ratio", "frac"),
    ("xpath.expand_us", "us"),
    ("lemma14.new_us", "us"),
    ("lemma14.fixpoint_us", "us"),
    ("lemma14.reach_us", "us"),
    ("lemma14.outcome_us", "us"),
    ("lemma14.retained_walks", "count"),
    ("replus.check_us", "us"),
    ("delrelab.check_us", "us"),
    ("batch.check_us", "us"),
    ("batch.render_us", "us"),
    ("incremental.update_us", "us"),
    ("incremental.components_reused", "count"),
    ("router.relay_us", "us"),
    ("router.cpu_ms_per_kverdict", "ms"),
    ("router.failovers", "count"),
    ("router.shard_respawns", "count"),
    ("store.hit_ratio", "frac"),
    ("store.corrupt", "count"),
    ("session.handle_frame_us", "us"),
    ("trace.coverage", "frac"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead_us", "us"),
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut xmltad = None;
    let mut xmlta = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--xmltad" => xmltad = Some(PathBuf::from(&value)),
            "--xmlta" => xmlta = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        bins: fixture::Bins {
            xmltad: xmltad.ok_or("--xmltad is required")?,
            xmlta: xmlta.ok_or("--xmlta is required")?,
        },
    })
}

/// The result line: the metrics the mode promises, in table order. Every
/// end-to-end metric must have been measured; a layer metric the workload
/// does not exercise reads 0.
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let table: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let measured = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v);
        let value = match measured {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0 && report.problems.is_empty(),
        report.attempted,
        report.failed
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match workloads::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&report, args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} ({} s)",
        args.workload, args.seed, args.seconds
    );
    for l in &report.lines {
        println!("{l}");
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    for (name, value) in &report.metrics {
        println!("  {name:<32} {value}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlta_service::{parse_json, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench"))
            .expect("BENCHMARK.json is JSON")
    }

    fn names(j: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let Some(Json::Arr(entries)) = j.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        entries
            .iter()
            .map(|e| {
                fields
                    .iter()
                    .map(|f| {
                        e.get(f)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let j = benchmark_json();
        let workloads: Vec<String> = names(&j, "workloads", &["name"]).concat();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = names(&j, "end_to_end", &["name", "unit"])
            .into_iter()
            .map(|v| (v[0].clone(), v[1].clone()))
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, ours);
        let layers: Vec<(String, String)> = names(&j, "per_layer", &["name", "unit"])
            .into_iter()
            .map(|v| (v[0].clone(), v[1].clone()))
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn every_traced_span_is_a_listed_layer_metric() {
        let out =
            std::env::temp_dir().join(format!("perfbench-spans-{}.jsonl", std::process::id()));
        let sources = inputs::handle_sources(1);
        let budgets = [
            trace::handles(&sources[..8], 1, &out),
            trace::cold(&inputs::cold_template(1), 1, &out),
            trace::edits(1, 16, &out),
        ];
        let _ = std::fs::remove_file(&out);
        for budget in &budgets {
            assert_eq!(budget.mismatches, 0, "stepped replies equal handle_frame's");
            for name in budget.layers.keys() {
                let metric = format!("{name}_us");
                assert!(
                    PER_LAYER.iter().any(|(n, _)| *n == metric),
                    "span {name} has no {metric} in PER_LAYER"
                );
            }
        }
    }

    #[test]
    fn result_line_carries_exactly_the_promised_metrics() {
        let mut report = Report::default();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            report.metrics.push((name.to_string(), 1.5));
        }
        report.attempted = 3;
        for trace in [false, true] {
            let line = result_line(&report, trace).expect("all metrics present");
            let j = parse_json(&line).expect("result line is JSON");
            assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Obj(metrics)) = j.get("metrics") else {
                panic!("metrics object");
            };
            let expect = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), expect);
        }
        report.metrics.retain(|(n, _)| *n != "req_p99_ms");
        assert!(
            result_line(&report, false).is_err(),
            "a missing metric is an error"
        );
    }
}
