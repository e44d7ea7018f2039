//! The concurrent batch driver.
//!
//! [`run_batch`] typechecks many textual instances on a fixed pool of
//! `std::thread` workers pulling item indices from an atomic counter and
//! sending results back over a channel. Results are re-ordered by item
//! index before anything is rendered, and the JSON report contains no
//! timings or cache counters, so **the output is byte-identical across
//! thread counts** — the acceptance property the integration tests and
//! `ci.sh` check.

use crate::binfmt::{decode_instance, decode_stream, BinError};
use crate::cache::{fingerprint_instance, typecheck_cached, CacheStats, SchemaCache};
use crate::json::push_escaped;
use crate::parse::parse_instance;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use typecheck_core::{Instance, Outcome};

/// What a batch item checks: textual source (parsed per run), a binary
/// `.xtb` frame (decoded per run — the fast cold path), or an
/// already-parsed instance (e.g. one registered with a server session —
/// the warm path skips the front-end entirely, and with the memo key
/// carried from registration skips the fingerprint pass too).
///
/// Payloads are `Arc`-shared so cloning an item (or fanning one source out
/// to a thousand items) never copies the bytes.
#[derive(Debug, Clone)]
pub enum BatchInput {
    /// Instance source in the textual format.
    Source(Arc<str>),
    /// An encoded `.xtb` frame ([`crate::binfmt`]).
    Binary(Arc<[u8]>),
    /// A pre-parsed (typically pre-compiled) instance.
    Prepared(Arc<Instance>),
    /// A pre-parsed instance with its memo key ([`fingerprint_instance`]),
    /// computed once when the instance was registered.
    Keyed {
        /// The instance.
        instance: Arc<Instance>,
        /// Its memo key; must equal `fingerprint_instance(&instance)`.
        key: u64,
    },
}

/// One unit of work: a named instance (typically a file).
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Display name (file path, generated id, or handle); lands in the
    /// JSON report.
    pub name: Arc<str>,
    /// The instance to check.
    pub input: BatchInput,
}

impl BatchItem {
    /// An item over textual source.
    pub fn from_source(name: impl Into<Arc<str>>, source: impl Into<Arc<str>>) -> BatchItem {
        BatchItem {
            name: name.into(),
            input: BatchInput::Source(source.into()),
        }
    }

    /// An item over an encoded `.xtb` frame.
    pub fn from_binary(name: impl Into<Arc<str>>, bytes: impl Into<Arc<[u8]>>) -> BatchItem {
        BatchItem {
            name: name.into(),
            input: BatchInput::Binary(bytes.into()),
        }
    }

    /// An item over a pre-parsed instance.
    pub fn from_prepared(name: impl Into<Arc<str>>, instance: Arc<Instance>) -> BatchItem {
        BatchItem {
            name: name.into(),
            input: BatchInput::Prepared(instance),
        }
    }

    /// An item over a pre-parsed instance whose memo key the caller
    /// carries (see [`BatchInput::Keyed`]).
    pub fn from_keyed(name: impl Into<Arc<str>>, instance: Arc<Instance>, key: u64) -> BatchItem {
        BatchItem {
            name: name.into(),
            input: BatchInput::Keyed { instance, key },
        }
    }
}

/// Expands a `.xts` delta stream ([`crate::binfmt::decode_stream`]) into
/// prepared batch items, named by the stream's embedded instance names —
/// the decode step of the server's `batch_bin` op and the CLI's local
/// `.xts` batches, so both render identical reports for the same stream.
pub fn stream_batch_items(bytes: &[u8]) -> Result<Vec<BatchItem>, BinError> {
    Ok(decode_stream(bytes)?
        .into_iter()
        .map(|(name, instance)| BatchItem::from_prepared(name, Arc::new(instance)))
        .collect())
}

/// The outcome of one item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemStatus {
    /// Every valid input maps into the output schema.
    TypeChecks,
    /// A witness violating the output schema exists.
    CounterExample {
        /// The input tree, in term syntax.
        input: String,
        /// Its image, in term syntax; `None` when the image is not a tree.
        output: Option<String>,
    },
    /// The item could not be checked (parse error, unsupported instance,
    /// resource limit).
    Error {
        /// Human-readable message.
        message: String,
    },
}

/// A completed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemResult {
    /// The item's display name (shared with the [`BatchItem`], not cloned).
    pub name: Arc<str>,
    /// Its status.
    pub status: ItemStatus,
}

/// The result of a whole batch, in submission order.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-item results, ordered by submission index.
    pub results: Vec<ItemResult>,
    /// Cache counters after the run (worker-interleaving dependent; kept
    /// out of the JSON report).
    pub stats: CacheStats,
}

impl BatchOutcome {
    /// Counts `(typechecks, counterexamples, errors)`.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for r in &self.results {
            match r.status {
                ItemStatus::TypeChecks => t.0 += 1,
                ItemStatus::CounterExample { .. } => t.1 += 1,
                ItemStatus::Error { .. } => t.2 += 1,
            }
        }
        t
    }

    /// Renders the deterministic JSON report (see the module docs).
    pub fn to_json(&self) -> String {
        let (ok, ce, err) = self.tally();
        let mut out = String::new();
        out.push_str("{\n  \"xmlta\": \"batch\",\n");
        let _ = writeln!(out, "  \"total\": {},", self.results.len());
        let _ = writeln!(out, "  \"typechecks\": {ok},");
        let _ = writeln!(out, "  \"counterexamples\": {ce},");
        let _ = writeln!(out, "  \"errors\": {err},");
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    ");
            push_result_json(&mut out, r, true);
            if i + 1 < self.results.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The same report as [`BatchOutcome::to_json`] on a single line with
    /// no decorative whitespace — the shape embedded in wire-protocol
    /// frames, which are one JSON object per line.
    pub fn to_json_line(&self) -> String {
        let (ok, ce, err) = self.tally();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"xmlta\":\"batch\",\"total\":{},\"typechecks\":{ok},\
             \"counterexamples\":{ce},\"errors\":{err},\"results\":[",
            self.results.len()
        );
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_result_json(&mut out, r, false);
        }
        out.push_str("]}");
        out
    }

    /// The report header without its `results` array — the tally frame
    /// that closes a streamed (per-item) `batch_bin` reply. Splicing the
    /// streamed item objects into `"results":[…]` before the final `}`
    /// reconstructs [`BatchOutcome::to_json_line`] byte for byte.
    pub fn tally_json_line(&self) -> String {
        let (ok, ce, err) = self.tally();
        format!(
            "{{\"xmlta\":\"batch\",\"total\":{},\"typechecks\":{ok},\
             \"counterexamples\":{ce},\"errors\":{err}}}",
            self.results.len()
        )
    }
}

/// One result record, rendered identically by both report styles (modulo
/// the `": "` separators of the pretty form, kept for file stability).
/// Renders one item record as compact JSON — the object that sits inside
/// a report's `results` array, and the payload of each frame in a
/// streamed (per-item) `batch_bin` reply.
pub fn result_json_line(r: &ItemResult) -> String {
    let mut out = String::new();
    push_result_json(&mut out, r, false);
    out
}

fn push_result_json(out: &mut String, r: &ItemResult, pretty: bool) {
    let sep = if pretty { ": " } else { ":" };
    let comma = if pretty { ", " } else { "," };
    out.push_str("{\"name\"");
    out.push_str(sep);
    push_escaped(out, &r.name);
    match &r.status {
        ItemStatus::TypeChecks => {
            out.push_str(comma);
            out.push_str("\"status\"");
            out.push_str(sep);
            out.push_str("\"typechecks\"");
        }
        ItemStatus::CounterExample { input, output } => {
            out.push_str(comma);
            out.push_str("\"status\"");
            out.push_str(sep);
            out.push_str("\"counterexample\"");
            out.push_str(comma);
            out.push_str("\"input\"");
            out.push_str(sep);
            push_escaped(out, input);
            out.push_str(comma);
            out.push_str("\"output\"");
            out.push_str(sep);
            match output {
                Some(o) => push_escaped(out, o),
                None => out.push_str("null"),
            }
        }
        ItemStatus::Error { message } => {
            out.push_str(comma);
            out.push_str("\"status\"");
            out.push_str(sep);
            out.push_str("\"error\"");
            out.push_str(comma);
            out.push_str("\"message\"");
            out.push_str(sep);
            push_escaped(out, message);
        }
    }
    out.push('}');
}

/// Parses and typechecks one item, converting panics into error records:
/// one adversarial instance must not take down a thousand-item batch.
fn process(item: &BatchItem, cache: Option<&SchemaCache>) -> ItemResult {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process_inner(item, cache))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            ItemResult {
                name: Arc::clone(&item.name),
                status: ItemStatus::Error {
                    message: format!("internal error: {msg}"),
                },
            }
        }
    }
}

fn process_inner(item: &BatchItem, cache: Option<&SchemaCache>) -> ItemResult {
    let status = match &item.input {
        BatchInput::Source(source) => match parse_instance(source) {
            Err(e) => ItemStatus::Error {
                message: format!("parse error: {e}"),
            },
            Ok(instance) => check_instance(&Arc::new(instance), cache),
        },
        BatchInput::Binary(bytes) => match decode_instance(bytes) {
            Err(e) => ItemStatus::Error {
                message: format!("decode error: {e}"),
            },
            Ok(instance) => check_instance(&Arc::new(instance), cache),
        },
        BatchInput::Prepared(instance) => check_instance(instance, cache),
        BatchInput::Keyed { instance, key } => check_instance_keyed(instance, Some(*key), cache),
    };
    ItemResult {
        name: Arc::clone(&item.name),
        status,
    }
}

/// Typechecks one parsed instance, folding the outcome into an
/// [`ItemStatus`] — the status shared by batch records and the server's
/// single-instance `typecheck` responses. The key-less form of
/// [`check_instance_keyed`]: with a cache, the memo key is computed here.
pub fn check_instance(instance: &Arc<Instance>, cache: Option<&SchemaCache>) -> ItemStatus {
    check_instance_keyed(instance, None, cache)
}

/// [`check_instance`] for a caller that may already hold the instance's
/// memo key (`key`, equal to [`fingerprint_instance`] of `instance`; `None`
/// computes it here).
///
/// With a cache, the whole verdict is memoized by instance content
/// ([`SchemaCache::memo_lookup`]): a repeated instance short-circuits here,
/// before any engine or schema product is touched, and the served status
/// is byte-identical to what recomputation would produce. The instance
/// arrives as an `Arc` so the memo can retain it for hit verification
/// without deep-cloning schemas and transducer — and so a registered
/// instance, probed with its carried key, hits by pointer identity.
pub fn check_instance_keyed(
    instance: &Arc<Instance>,
    key: Option<u64>,
    cache: Option<&SchemaCache>,
) -> ItemStatus {
    let Some(cache) = cache else {
        return render_status(typecheck_core::typecheck(instance), instance);
    };
    let memo_span = xmlta_obs::span("memo");
    let key = key.unwrap_or_else(|| fingerprint_instance(instance));
    if let Some(hit) = cache.memo_lookup(key, instance) {
        return hit;
    }
    memo_span.finish();
    let status = render_status(typecheck_cached(cache, instance), instance);
    cache.memo_insert(key, instance, &status);
    status
}

/// Folds an engine outcome into the rendered [`ItemStatus`]. Public so the
/// incremental-update path ([`crate::incremental`]) renders byte-identical
/// statuses to this batch path.
pub fn render_status(
    outcome: Result<Outcome, typecheck_core::TypecheckError>,
    instance: &Instance,
) -> ItemStatus {
    match outcome {
        Ok(Outcome::TypeChecks) => ItemStatus::TypeChecks,
        Ok(Outcome::CounterExample(ce)) => ItemStatus::CounterExample {
            input: ce.input.display(&instance.alphabet).to_string(),
            output: ce
                .output
                .as_ref()
                .map(|o| o.display(&instance.alphabet).to_string()),
        },
        Err(e) => ItemStatus::Error {
            message: e.to_string(),
        },
    }
}

/// Typechecks `items` on `threads` workers (clamped to ≥ 1), sharing
/// `cache` across workers when given.
///
/// Work distribution is dynamic (an atomic next-index counter), so slow
/// items don't serialize behind a static partition; result order is by
/// submission index regardless of completion order.
pub fn run_batch(items: &[BatchItem], threads: usize, cache: Option<&SchemaCache>) -> BatchOutcome {
    let threads = threads.max(1).min(items.len().max(1));
    let mut slots: Vec<Option<ItemResult>> = Vec::new();
    slots.resize_with(items.len(), || None);
    if threads <= 1 {
        for (slot, item) in slots.iter_mut().zip(items) {
            *slot = Some(process(item, cache));
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, ItemResult)>();
        // Workers inherit the submitting thread's trace context, so
        // per-item spans (memo, compile, …) stay attributed to the
        // protocol request that carried the batch.
        let ctx = xmlta_obs::ctx();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let next = &next;
                let ctx = ctx.clone();
                scope.spawn(move || {
                    xmlta_obs::adopt_ctx(ctx);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        if tx.send((i, process(&items[i], cache))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (i, result) in rx {
                slots[i] = Some(result);
            }
        });
    }
    BatchOutcome {
        results: slots
            .into_iter()
            .map(|r| r.expect("every item processed"))
            .collect(),
        stats: cache.map(SchemaCache::stats).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
input dtd {
  start r
  r -> x*
  x -> eps
}
output dtd {
  start r
  r -> y*
}
transducer {
  states root q
  initial root
  (root, r) -> r(q)
  (q, x) -> y
}
";

    const BAD_SCHEMA: &str = "\
input dtd {
  start r
  r -> x x
  x -> eps
}
output dtd {
  start r
  r -> y
}
transducer {
  states root q
  initial root
  (root, r) -> r(q)
  (q, x) -> y
}
";

    fn items(n: usize) -> Vec<BatchItem> {
        (0..n)
            .map(|i| {
                BatchItem::from_source(
                    format!("item-{i:03}"),
                    match i % 3 {
                        0 => GOOD,
                        1 => BAD_SCHEMA,
                        _ => "input dtd {", // parse error
                    },
                )
            })
            .collect()
    }

    #[test]
    fn statuses_and_order() {
        let out = run_batch(&items(6), 1, None);
        assert_eq!(out.results.len(), 6);
        assert!(matches!(out.results[0].status, ItemStatus::TypeChecks));
        assert!(matches!(
            out.results[1].status,
            ItemStatus::CounterExample { .. }
        ));
        assert!(matches!(out.results[2].status, ItemStatus::Error { .. }));
        assert_eq!(out.tally(), (2, 2, 2));
        assert_eq!(out.results[4].name.as_ref(), "item-004");
    }

    #[test]
    fn json_is_identical_across_thread_counts() {
        let items = items(24);
        let cache = SchemaCache::new();
        let one = run_batch(&items, 1, Some(&cache)).to_json();
        let four = run_batch(&items, 4, Some(&cache)).to_json();
        let uncached = run_batch(&items, 4, None).to_json();
        assert_eq!(one, four);
        assert_eq!(one, uncached);
        assert!(one.contains("\"status\": \"counterexample\""));
    }

    #[test]
    fn prepared_items_match_source_items() {
        let prepared = Arc::new(crate::parse_instance(BAD_SCHEMA).unwrap());
        let by_source = run_batch(&[BatchItem::from_source("x", BAD_SCHEMA)], 1, None);
        let by_handle = run_batch(&[BatchItem::from_prepared("x", prepared)], 1, None);
        assert_eq!(by_source.results, by_handle.results);
    }

    #[test]
    fn json_line_matches_pretty_report() {
        let out = run_batch(&items(6), 1, None);
        let line = out.to_json_line();
        assert!(!line.contains('\n'));
        let pretty = crate::json::parse_json(&out.to_json()).expect("pretty report is JSON");
        let compact = crate::json::parse_json(&line).expect("line report is JSON");
        assert_eq!(pretty, compact);
    }

    #[test]
    fn counterexample_renders_trees() {
        let out = run_batch(&[BatchItem::from_source("bad", BAD_SCHEMA)], 1, None);
        match &out.results[0].status {
            ItemStatus::CounterExample { input, output } => {
                assert!(input.starts_with("r("), "input tree rendered: {input}");
                assert!(output.as_deref().is_some_and(|o| o.starts_with("r(")));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }
}
