//! Shared helpers for the bench binaries.
//!
//! [`LEMMA14_SWEEPS`] is the one definition of the Lemma 14 scaling
//! sweeps, iterated by both the `lemma14_scaling` criterion bench and
//! `lemma14_report`. The [`report`] module owns the on-disk history
//! discipline for `BENCH_lemma14.json`: how runs are extracted from an
//! existing report, how a new run is merged in, and how the result is
//! written back without losing runs that landed while a benchmark was
//! measuring.

use xmlta_hardness::workloads::{self, Workload};

/// One Lemma 14 scaling sweep: a workload family swept over its params.
pub struct Sweep {
    /// The series (and criterion group) name.
    pub name: &'static str,
    pub family: fn(usize) -> Workload,
    pub params: &'static [usize],
}

/// The Lemma 14 bound `O((|d_in| · |T|^{CK} · |d_out|^{CK})^α)`, swept
/// per parameter.
pub const LEMMA14_SWEEPS: [Sweep; 4] = [
    // |d_in|: the filtering family's section depth.
    Sweep {
        name: "lemma14/din-size",
        family: workloads::filtering_family,
        params: &[2, 4, 8, 16, 32],
    },
    // The copying width C.
    Sweep {
        name: "lemma14/copying-width",
        family: workloads::copying_family,
        params: &[1, 2, 4, 8],
    },
    // The deletion path width K = 2^k.
    Sweep {
        name: "lemma14/deletion-path-width",
        family: workloads::deletion_family,
        params: &[1, 2, 3, 4],
    },
    // |d_out|: the regex alternation width.
    Sweep {
        name: "lemma14/dout-size",
        family: workloads::regex_schema_family,
        params: &[2, 4, 8, 16],
    },
];

pub mod report {
    //! Append-only run history for `lemma14_report`-style reports.
    //!
    //! The failure mode this module exists to prevent: the report binary
    //! used to read the history once at startup, measure for minutes, and
    //! then rewrite the whole file from that stale snapshot — any run
    //! appended in between (a concurrent `ci.sh --bench`, a second label
    //! re-run) was silently dropped, and an unreadable file was treated as
    //! an *empty* one, clobbering it outright. Here the merge happens at
    //! write time against a fresh read, only `NotFound` counts as "no
    //! history yet", and the write itself is a temp-file + rename so a
    //! crash mid-write cannot leave a half-truncated report behind.

    use std::io::{ErrorKind, Write};
    use std::path::Path;

    /// One serialized run: its label plus the exact pretty-printed JSON
    /// object text (4-space indented, as the report binary emits it).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Run {
        pub label: String,
        pub body: String,
    }

    /// Pulls the previously serialized run objects back out of a report.
    ///
    /// The file is machine-written with exactly the layout produced by
    /// [`render`], so a structural scan (brace matching inside the `runs`
    /// array) is sufficient — no JSON parser dependency needed offline.
    /// Anything that does not look like such a report is an error:
    /// appending to it would destroy data.
    pub fn extract_runs(s: &str) -> Result<Vec<Run>, String> {
        let Some(start) = s.find("\"runs\": [") else {
            return Err("missing `\"runs\": [` array".to_string());
        };
        let tail = &s[start + "\"runs\": [".len()..];
        let mut runs = Vec::new();
        let mut depth = 0usize;
        let mut cur = String::new();
        let mut closed = false;
        for ch in tail.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    cur.push(ch);
                }
                '}' => {
                    if depth == 0 {
                        return Err("unbalanced braces in runs array".to_string());
                    }
                    depth -= 1;
                    cur.push(ch);
                    if depth == 0 {
                        let body = format!("    {}", cur.trim());
                        runs.push(Run {
                            label: run_label(&body)?,
                            body,
                        });
                        cur.clear();
                    }
                }
                ']' if depth == 0 => {
                    closed = true;
                    break;
                }
                _ => {
                    if depth > 0 {
                        cur.push(ch);
                    }
                }
            }
        }
        if !closed {
            return Err("unterminated runs array".to_string());
        }
        Ok(runs)
    }

    /// The `"label"` value of a serialized run. Labels are sanitized to
    /// `[A-Za-z0-9._+-]` before serialization, so a plain quote scan is
    /// exact — there are no escapes to honor.
    fn run_label(body: &str) -> Result<String, String> {
        let key = "\"label\": \"";
        let Some(at) = body.find(key) else {
            return Err("run object without a \"label\" field".to_string());
        };
        let rest = &body[at + key.len()..];
        match rest.find('"') {
            Some(end) => Ok(rest[..end].to_string()),
            None => Err("unterminated \"label\" string".to_string()),
        }
    }

    /// Reads the run history at `path`. A missing file is an empty
    /// history; any other read failure (permissions, I/O, a directory in
    /// the way) is an error — treating it as empty is exactly the clobber
    /// this module exists to prevent.
    pub fn read_history(path: &Path) -> Result<Vec<Run>, String> {
        match std::fs::read_to_string(path) {
            Ok(s) => extract_runs(&s)
                .map_err(|e| format!("{} exists but is malformed ({e})", path.display())),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Serializes a full report from its runs, in the exact layout
    /// [`extract_runs`] scans.
    pub fn render(runs: &[Run]) -> String {
        let bodies: Vec<&str> = runs.iter().map(|r| r.body.as_str()).collect();
        format!(
            "{{\n  \"benchmark\": \"lemma14\",\n  \"unit\": \"ms\",\n  \"runs\": [\n{}\n  ]\n}}\n",
            bodies.join(",\n")
        )
    }

    /// Merges `run` into the report at `path` and writes it back
    /// atomically. The history is re-read *here*, immediately before the
    /// write, so runs appended while the caller was measuring survive. A
    /// run with the same label supersedes the old one in place (a re-run
    /// refreshes its numbers); all other runs are preserved in order.
    /// Returns the total number of runs written.
    pub fn append_run(path: &Path, run: Run) -> Result<usize, String> {
        let mut runs = read_history(path)?;
        match runs.iter().position(|r| r.label == run.label) {
            Some(i) => runs[i] = run,
            None => runs.push(run),
        }
        let json = render(&runs);
        write_atomic(path, &json)?;
        Ok(runs.len())
    }

    /// Writes via a same-directory temp file and rename, so readers never
    /// observe a partially written report and a crash cannot truncate the
    /// existing one.
    fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("{} has no file name", path.display()))?;
        let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
        let write = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(contents.as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!("cannot write {}: {e}", path.display()));
        }
        Ok(())
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::path::PathBuf;

        fn temp_report(tag: &str) -> PathBuf {
            let dir = std::env::temp_dir()
                .join(format!("xmlta-bench-report-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("temp dir");
            dir.join("BENCH_lemma14.json")
        }

        fn run(label: &str, ms: f64) -> Run {
            Run {
                label: label.to_string(),
                body: format!(
                    "    {{\n      \"label\": \"{label}\",\n      \"noise_floor_ms\": 0.100,\n      \
                     \"series\": {{\n        \"lemma14/din-size\": [{{\"param\": 2, \"ms\": {ms:.3}, \
                     \"min\": {ms:.3}, \"iqr\": 0.010, \"reps\": 5}}]\n      }}\n    }}"
                ),
            }
        }

        fn cleanup(path: &Path) {
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }

        #[test]
        fn append_preserves_all_existing_labeled_runs() {
            let path = temp_report("append");
            let labels_in = ["seed-baseline", "bitset-kernel", "pr8-observability"];
            for (i, label) in labels_in.iter().enumerate() {
                let total = append_run(&path, run(label, 1.0 + i as f64)).expect("append ok");
                assert_eq!(total, i + 1);
                let labels: Vec<String> = read_history(&path)
                    .expect("readable after every append")
                    .into_iter()
                    .map(|r| r.label)
                    .collect();
                assert_eq!(
                    labels,
                    labels_in[..=i],
                    "every previously appended run survives the next append"
                );
            }
            append_run(&path, run("late-run", 4.0)).expect("append ok");
            let labels: Vec<String> = read_history(&path)
                .unwrap()
                .into_iter()
                .map(|r| r.label)
                .collect();
            assert_eq!(
                labels,
                [
                    "seed-baseline",
                    "bitset-kernel",
                    "pr8-observability",
                    "late-run"
                ]
            );
            cleanup(&path);
        }

        #[test]
        fn run_landed_during_measurement_survives_the_write() {
            // The old binary snapshotted the history at startup and wrote
            // that snapshot back after measuring — a run appended in
            // between was dropped. `append_run` re-reads at write time, so
            // the same interleaving now preserves both runs.
            let path = temp_report("interleave");
            append_run(&path, run("seed-baseline", 1.0)).unwrap();
            // Our run "starts measuring" here; meanwhile another process
            // appends its own run.
            append_run(&path, run("concurrent", 9.0)).unwrap();
            // Our run finishes and writes.
            append_run(&path, run("ours", 2.0)).unwrap();
            let labels: Vec<String> = read_history(&path)
                .unwrap()
                .into_iter()
                .map(|r| r.label)
                .collect();
            assert_eq!(labels, ["seed-baseline", "concurrent", "ours"]);
            cleanup(&path);
        }

        #[test]
        fn rerun_of_a_label_supersedes_in_place() {
            let path = temp_report("rerun");
            append_run(&path, run("a", 1.0)).unwrap();
            append_run(&path, run("b", 2.0)).unwrap();
            let total = append_run(&path, run("a", 7.0)).expect("re-run ok");
            assert_eq!(total, 2, "a re-run replaces, never duplicates");
            let runs = read_history(&path).unwrap();
            assert_eq!(runs.len(), 2);
            assert_eq!(runs[0].label, "a");
            assert!(runs[0].body.contains("7.000"), "numbers were refreshed");
            assert_eq!(runs[1].label, "b", "other runs keep their place");
            cleanup(&path);
        }

        #[test]
        fn roundtrip_is_exact() {
            let path = temp_report("roundtrip");
            let original = vec![run("one", 1.0), run("two", 2.0)];
            for r in &original {
                append_run(&path, r.clone()).unwrap();
            }
            let on_disk = std::fs::read_to_string(&path).unwrap();
            assert_eq!(on_disk, render(&original));
            assert_eq!(extract_runs(&on_disk).unwrap(), original);
            cleanup(&path);
        }

        #[test]
        fn malformed_history_refuses_instead_of_clobbering() {
            let path = temp_report("malformed");
            std::fs::write(&path, "{\"benchmark\": \"lemma14\"}").unwrap();
            let before = std::fs::read_to_string(&path).unwrap();
            assert!(read_history(&path).is_err());
            let err = append_run(&path, run("x", 1.0)).unwrap_err();
            assert!(err.contains("malformed"), "got: {err}");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                before,
                "the malformed file is left untouched"
            );
            cleanup(&path);
        }

        #[test]
        fn unreadable_history_is_an_error_not_an_empty_history() {
            let path = temp_report("unreadable");
            // A directory where the report should be: reading fails with
            // something other than NotFound, which must not be treated as
            // "no runs yet".
            std::fs::create_dir_all(&path).unwrap();
            assert!(read_history(&path).is_err());
            assert!(append_run(&path, run("x", 1.0)).is_err());
            cleanup(&path);
        }

        #[test]
        fn missing_file_is_an_empty_history() {
            let path = temp_report("missing");
            assert_eq!(read_history(&path).unwrap(), Vec::new());
            cleanup(&path);
        }

        #[test]
        fn extract_rejects_truncation_and_stray_braces() {
            let good = render(&[run("a", 1.0)]);
            assert!(
                extract_runs(&good[..good.len() - 6]).is_err(),
                "unterminated array"
            );
            assert!(extract_runs("{}").is_err(), "no runs array");
            assert!(
                extract_runs("\"runs\": [ } ]").is_err(),
                "unbalanced braces"
            );
        }
    }
}
