//! The traced run: frames of a workload replayed in-process two ways.
//!
//! * **plain** — through `Session::handle_frame`, timed only from outside;
//! * **stepped** — through the public entry points of each layer, in the
//!   order the server calls them, with a benchmark-side span around each
//!   call (name, start, end, parent; kept in memory, written out at the
//!   end).
//!
//! A span's *self* time is its duration minus the time its child spans
//! cover. Summed over the layers, self times should account for the plain
//! per-frame time; the remainder is reported as unattributed, and the gap
//! between the stepped and the plain totals as the tracing overhead. The
//! stepped replies are compared byte for byte with the plain ones, so the
//! budget is known to describe the path the server really takes.

use crate::inputs::{ColdTemplate, EditScript, SECTIONS};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use typecheck_core::delrelab;
use typecheck_core::lemma14::Lemma14Engine;
use typecheck_core::{replus, Instance, Outcome, Schema, TypecheckError};
use xmlta_server::proto::{self, Op, ResponseBuilder, Target};
use xmlta_server::state::apply_edit;
use xmlta_server::{Prepared, Session, Shared};
use xmlta_service::batch::{
    render_status, stream_batch_items, BatchInput, BatchOutcome, ItemResult,
};
use xmlta_service::cache::{CacheStats, SchemaCache};
use xmlta_service::{
    fingerprint_instance, parse_json, print_instance, ComponentFingerprints, ItemStatus, Json,
    RetainedEngine,
};
use xmlta_transducer::translate::expand_selectors_with_alphabet;

/// The stepped replay's root span (the per-frame total, not a layer).
const ROOT: &str = "session.frame";

struct Span {
    name: &'static str,
    frame: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    frame: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            frame: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            frame: self.frame,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize) {
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans close in nesting order");
        self.spans[idx].end_ns = end;
    }

    /// Σ self time per span name, in µs.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 / 1e3;
        }
        out
    }

    fn root_total_us(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Writes the spans as JSON lines.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"frame\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.frame, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What a traced replay measured, per request.
#[derive(Debug, Default)]
pub struct Budget {
    pub requests: usize,
    /// Plain per-request times (µs), through `Session::handle_frame`.
    pub plain_us: Vec<f64>,
    /// Mean stepped per-request time (µs).
    pub stepped_us: f64,
    /// Mean self time per request (µs) of every layer span.
    pub layers: BTreeMap<&'static str, f64>,
    /// Mean request frame size (kB).
    pub frame_kb: f64,
    /// Mean `Shared::register` time (µs) of the set-up registrations.
    pub register_us: Option<f64>,
    /// Mean retained walks per Lemma 14 engine run (0 when none ran).
    pub retained_walks: f64,
    /// Stepped replies that differ from the plain ones.
    pub mismatches: usize,
}

impl Budget {
    pub fn plain_mean_us(&self) -> f64 {
        self.plain_us.iter().sum::<f64>() / self.plain_us.len().max(1) as f64
    }
}

/// Sums up a replay: per-request means of every layer's self time.
fn finish(
    tr: &Tracer,
    plain_us: Vec<f64>,
    frame_bytes: usize,
    walks: &[usize],
    mismatches: usize,
    out: &Path,
) -> Budget {
    let requests = plain_us.len();
    let n = requests.max(1) as f64;
    let mut layers: BTreeMap<&'static str, f64> = tr
        .self_times()
        .into_iter()
        .map(|(k, v)| (k, v / n))
        .collect();
    layers.remove(ROOT);
    if let Err(e) = tr.write(out) {
        eprintln!("perfbench: cannot write {}: {e}", out.display());
    }
    Budget {
        requests,
        plain_us,
        stepped_us: tr.root_total_us() / n,
        layers,
        frame_kb: frame_bytes as f64 / n / 1024.0,
        register_us: None,
        retained_walks: walks.iter().sum::<usize>() as f64 / walks.len().max(1) as f64,
        mismatches,
    }
}

// ---------------------------------------------------------------------
// Replays

/// Handle workloads: register every source, warm the memo with one pass,
/// then replay `passes` passes of typecheck-by-handle frames. Plain and
/// stepped requests alternate, so machine noise falls on both alike.
pub fn handles(sources: &[String], passes: usize, out: &Path) -> Budget {
    let hello = proto::req_hello_v2(u64::MAX, 2, Some(32));
    let mut plain = Session::new(Shared::new());
    plain.handle_frame(&hello);
    let frames: Vec<String> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let handle = str_field(
                &plain.handle_frame(&proto::req_register(i as u64, s)).0,
                "handle",
            );
            proto::req_typecheck_handle(i as u64, &handle)
        })
        .collect();
    for f in &frames {
        plain.handle_frame(f);
    }

    let shared = Shared::new();
    let mut table: HashMap<String, Arc<Prepared>> = HashMap::new();
    let t = Instant::now();
    for s in sources {
        let prepared = shared.register(s).expect("generated sources parse");
        table.insert(prepared.handle.clone(), prepared);
    }
    let register_us = t.elapsed().as_secs_f64() * 1e6 / sources.len().max(1) as f64;
    for prepared in table.values() {
        xmlta_service::check_instance(&prepared.instance, Some(shared.cache()));
    }

    let mut tr = Tracer::new();
    let mut walks = Vec::new();
    let mut plain_us = Vec::with_capacity(frames.len() * passes);
    let mut mismatches = 0;
    for _ in 0..passes {
        for f in &frames {
            let t = Instant::now();
            let reply = plain.handle_frame(f).0;
            plain_us.push(t.elapsed().as_secs_f64() * 1e6);
            tr.frame += 1;
            if stepped_typecheck(&mut tr, &shared, &table, f, &mut walks) != reply {
                mismatches += 1;
            }
        }
    }
    let bytes = frames.iter().map(String::len).sum::<usize>() * passes;
    let mut budget = finish(&tr, plain_us, bytes, &walks, mismatches, out);
    budget.register_us = Some(register_us);
    budget
}

/// Cold workload: `frames` stamped `batch_bin` frames against a fresh
/// cache, as the daemon sees them right after start.
pub fn cold(template: &ColdTemplate, frames: u64, out: &Path) -> Budget {
    let mut plain = Session::new(Shared::new());
    plain.handle_frame(&proto::req_hello_v2(u64::MAX, 2, Some(1)));
    let shared = Shared::new();
    let mut tr = Tracer::new();
    let mut walks = Vec::new();
    let mut plain_us = Vec::new();
    let mut mismatches = 0;
    let mut bytes = 0;
    for k in 0..frames {
        let line = proto::req_batch_bin(k, &template.stamped(k), Some(1), false);
        bytes += line.len();
        let t = Instant::now();
        let reply = plain.handle_frame(&line).0;
        plain_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.frame += 1;
        if stepped_batch_bin(&mut tr, &shared, &line, &mut walks) != reply {
            mismatches += 1;
        }
    }
    finish(&tr, plain_us, bytes, &walks, mismatches, out)
}

/// Edit workload: `steps` update + typecheck pairs of the seed's script.
pub fn edits(seed: u64, steps: u64, out: &Path) -> Budget {
    let base = EditScript::base_source(seed, SECTIONS);
    let mut plain = Session::new(Shared::new());
    plain.handle_frame(&proto::req_hello_v2(u64::MAX, 2, Some(1)));
    let mut handle = str_field(
        &plain.handle_frame(&proto::req_register(0, &base)).0,
        "handle",
    );

    let shared = Shared::new();
    let mut table: HashMap<String, Arc<Prepared>> = HashMap::new();
    let prepared = shared.register(&base).expect("base instance parses");
    table.insert(prepared.handle.clone(), prepared);

    let mut script = EditScript::new(seed, SECTIONS);
    let mut tr = Tracer::new();
    let mut walks = Vec::new();
    let mut plain_us = Vec::new();
    let mut mismatches = 0;
    let mut bytes = 0;
    for k in 0..steps {
        let update = proto::req_update(2 * k, &handle, &script.next_step().edit);
        let t = Instant::now();
        let reply = plain.handle_frame(&update).0;
        handle = str_field(&reply, "handle");
        let check = proto::req_typecheck_handle(2 * k + 1, &handle);
        let checked = plain.handle_frame(&check).0;
        plain_us.push(t.elapsed().as_secs_f64() * 1e6);
        bytes += update.len() + check.len();
        tr.frame += 1;
        if stepped_update(&mut tr, &shared, &mut table, &update, &mut walks) != reply {
            mismatches += 1;
        }
        if stepped_typecheck(&mut tr, &shared, &table, &check, &mut walks) != checked {
            mismatches += 1;
        }
    }
    finish(&tr, plain_us, bytes, &walks, mismatches, out)
}

fn str_field(reply: &str, key: &str) -> String {
    parse_json(reply)
        .ok()
        .and_then(|j| j.get(key).and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| panic!("reply without `{key}`: {reply}"))
}

// ---------------------------------------------------------------------
// Stepped request paths. Each mirrors the server's own sequence of calls
// (`Session::plan`, `execute_job`, `Session::update`, `check_instance`,
// `typecheck_cached`, `typecheck_core::typecheck`), one span per layer.

fn parse(tr: &mut Tracer, line: &str) -> proto::Request {
    let s = tr.enter("proto.parse");
    let request = proto::parse_request(line, proto::MAX_PROTOCOL_VERSION);
    tr.exit(s);
    request.expect("replayed frames parse")
}

fn stepped_typecheck(
    tr: &mut Tracer,
    shared: &Shared,
    table: &HashMap<String, Arc<Prepared>>,
    line: &str,
    walks: &mut Vec<usize>,
) -> String {
    let root = tr.enter(ROOT);
    let request = parse(tr, line);
    let Op::Typecheck {
        target: Target::Handle(handle),
    } = request.op
    else {
        panic!("a typecheck-by-handle frame");
    };
    let s = tr.enter("session.resolve");
    let instance = Arc::clone(&table[&handle].instance);
    tr.exit(s);
    let status = stepped_check(tr, shared.cache(), &instance, walks);
    let s = tr.enter("batch.render");
    let reply = status_reply(ResponseBuilder::new(&request.id, true), &status).finish();
    tr.exit(s);
    tr.exit(root);
    reply
}

fn stepped_batch_bin(
    tr: &mut Tracer,
    shared: &Shared,
    line: &str,
    walks: &mut Vec<usize>,
) -> String {
    let root = tr.enter(ROOT);
    let request = parse(tr, line);
    let Op::BatchBin { data, .. } = request.op else {
        panic!("a batch_bin frame");
    };
    let s = tr.enter("binfmt.decode");
    let items = stream_batch_items(&data).expect("stamped streams decode");
    tr.exit(s);
    let mut results = Vec::with_capacity(items.len());
    for item in &items {
        let BatchInput::Prepared(instance) = &item.input else {
            panic!("stream items arrive decoded");
        };
        let status = stepped_check(tr, shared.cache(), instance, walks);
        results.push(ItemResult {
            name: Arc::clone(&item.name),
            status,
        });
    }
    let s = tr.enter("batch.render");
    let outcome = BatchOutcome {
        results,
        stats: CacheStats::default(),
    };
    let reply = ResponseBuilder::new(&request.id, true)
        .raw_field("report", &outcome.to_json_line())
        .finish();
    tr.exit(s);
    tr.exit(root);
    reply
}

fn stepped_update(
    tr: &mut Tracer,
    shared: &Shared,
    table: &mut HashMap<String, Arc<Prepared>>,
    line: &str,
    walks: &mut Vec<usize>,
) -> String {
    let root = tr.enter(ROOT);
    let request = parse(tr, line);
    let Op::Update { handle, edit } = request.op else {
        panic!("an update frame");
    };
    let s = tr.enter("session.resolve");
    let old = Arc::clone(&table[&handle]);
    tr.exit(s);
    let s = tr.enter("state.apply_edit");
    let edited = apply_edit(&old.instance, &edit);
    tr.exit(s);
    let edited = edited.expect("scripted edits apply");
    let s = tr.enter("print.instance");
    let printed = print_instance(&edited);
    tr.exit(s);
    let printed = printed.expect("edited instances print");
    let s = tr.enter("state.register");
    let new = shared.register(&printed);
    tr.exit(s);
    let new = new.expect("printed instances parse");
    let s = tr.enter("cache.component_fp");
    let fp_old = ComponentFingerprints::of(&old.instance);
    let fp_new = ComponentFingerprints::of(&new.instance);
    let reused = fp_new.shared_with(&fp_old) as u64;
    tr.exit(s);
    let status = stepped_update_status(tr, shared, &old, &new, &fp_old, &fp_new, walks);
    table.insert(new.handle.clone(), Arc::clone(&new));
    let s = tr.enter("batch.render");
    let b = ResponseBuilder::new(&request.id, true).str_field("handle", &new.handle);
    let reply = status_reply(b, &status)
        .num_field("components_reused", reused)
        .finish();
    tr.exit(s);
    tr.exit(root);
    reply
}

/// Mirrors the server's incremental verdict: chain the predecessor's
/// retained engine when the schemas are unchanged, trust it only for
/// "typechecks", and fall back to a full check otherwise.
fn stepped_update_status(
    tr: &mut Tracer,
    shared: &Shared,
    old: &Prepared,
    new: &Arc<Prepared>,
    fp_old: &ComponentFingerprints,
    fp_new: &ComponentFingerprints,
    walks: &mut Vec<usize>,
) -> ItemStatus {
    let cache = shared.cache();
    let schemas_unchanged = fp_old.alphabet == fp_new.alphabet
        && fp_old.input == fp_new.input
        && fp_old.output == fp_new.output;
    if schemas_unchanged {
        let taken = old
            .engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(mut engine) = taken {
            let s = tr.enter("incremental.update");
            let updated = engine.update(&new.instance.transducer);
            tr.exit(s);
            if let Ok((outcome, reuse)) = updated {
                walks.push(reuse.retained_walks);
                let type_checks = outcome.type_checks();
                *new.engine
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(engine);
                if type_checks {
                    let s = tr.enter("cache.fingerprint");
                    let fp = fingerprint_instance(&new.instance);
                    tr.exit(s);
                    let s = tr.enter("cache.memo_insert");
                    cache.memo_insert(fp, &new.instance, &ItemStatus::TypeChecks);
                    tr.exit(s);
                    return ItemStatus::TypeChecks;
                }
                return stepped_check(tr, cache, &new.instance, walks);
            }
        }
    }
    let status = stepped_check(tr, cache, &new.instance, walks);
    if RetainedEngine::applicable(&new.instance) {
        let mut slot = new
            .engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            let s = tr.enter("incremental.update");
            let (engine, _) = RetainedEngine::build(cache, &new.instance);
            tr.exit(s);
            *slot = engine;
        }
    }
    status
}

/// `check_instance` with a cache, stepped.
fn stepped_check(
    tr: &mut Tracer,
    cache: &SchemaCache,
    instance: &Arc<Instance>,
    walks: &mut Vec<usize>,
) -> ItemStatus {
    let check = tr.enter("batch.check");
    let s = tr.enter("cache.fingerprint");
    let fp = fingerprint_instance(instance);
    tr.exit(s);
    let s = tr.enter("cache.memo_lookup");
    let hit = cache.memo_lookup(fp, instance);
    tr.exit(s);
    if let Some(status) = hit {
        tr.exit(check);
        return status;
    }
    let outcome = stepped_typecheck_cached(tr, cache, instance, walks);
    let s = tr.enter("batch.render");
    let status = render_status(outcome, instance);
    tr.exit(s);
    let s = tr.enter("cache.memo_insert");
    cache.memo_insert(fp, instance, &status);
    tr.exit(s);
    tr.exit(check);
    status
}

/// `typecheck_cached` followed by `typecheck_core::typecheck`'s dispatch.
fn stepped_typecheck_cached(
    tr: &mut Tracer,
    cache: &SchemaCache,
    instance: &Instance,
    walks: &mut Vec<usize>,
) -> Result<Outcome, TypecheckError> {
    if let (Schema::Nta(ain), Schema::Nta(aout)) = (&instance.input, &instance.output) {
        let transducer = expand(tr, instance)?;
        delrelab::require_delrelab(&transducer)?;
        let sigma = delrelab::joint_sigma(ain, aout, instance.alphabet_size());
        let s = tr.enter("cache.compile");
        let bout = cache.delrelab_bout(aout, sigma);
        tr.exit(s);
        let bout = bout?;
        let s = tr.enter("delrelab.check");
        let outcome = delrelab::typecheck_delrelab_with_bout(ain, &bout, &transducer, sigma);
        tr.exit(s);
        return outcome;
    }
    let s = tr.enter("cache.compile");
    let compile = |schema: &Schema| match schema {
        Schema::Dtd(d) => Schema::Dtd((*cache.compile_dtd(d)).clone()),
        Schema::Nta(n) => Schema::Nta(n.clone()),
    };
    let prepared = Instance {
        alphabet: instance.alphabet.clone(),
        input: compile(&instance.input),
        output: compile(&instance.output),
        transducer: instance.transducer.clone(),
    };
    tr.exit(s);
    let transducer = expand(tr, &prepared)?;
    let sigma = prepared.alphabet_size();
    match (&prepared.input, &prepared.output) {
        (Schema::Dtd(din), Schema::Dtd(dout)) if din.is_replus_dtd() && dout.is_replus_dtd() => {
            let s = tr.enter("replus.check");
            let outcome = replus::typecheck_replus(din, dout, &transducer, sigma);
            tr.exit(s);
            outcome
        }
        (Schema::Dtd(din), Schema::Dtd(dout)) => {
            let s = tr.enter("lemma14.new");
            let engine = Lemma14Engine::new(din, dout, &transducer, sigma);
            tr.exit(s);
            let mut engine = engine?;
            let s = tr.enter("lemma14.fixpoint");
            let fixed = engine.run_fixpoint();
            tr.exit(s);
            fixed?;
            let s = tr.enter("lemma14.reach");
            engine.compute_reachable();
            tr.exit(s);
            let s = tr.enter("lemma14.outcome");
            let outcome = engine.outcome();
            tr.exit(s);
            walks.push(engine.retained_walks());
            outcome
        }
        _ => typecheck_core::typecheck(&prepared),
    }
}

/// Selector expansion (the XPath layer), or a plain clone without one.
fn expand(
    tr: &mut Tracer,
    instance: &Instance,
) -> Result<xmlta_transducer::Transducer, TypecheckError> {
    if !instance.transducer.uses_selectors() {
        return Ok(instance.transducer.clone());
    }
    let s = tr.enter("xpath.expand");
    let t = expand_selectors_with_alphabet(&instance.transducer, instance.alphabet_size());
    tr.exit(s);
    t.map_err(|e| TypecheckError::Selector(e.to_string()))
}

/// The verdict fields of a `typecheck`/`update` reply.
fn status_reply(b: ResponseBuilder, status: &ItemStatus) -> ResponseBuilder {
    match status {
        ItemStatus::TypeChecks => b.str_field("status", "typechecks"),
        ItemStatus::CounterExample { input, output } => {
            let b = b
                .str_field("status", "counterexample")
                .str_field("input", input);
            match output {
                Some(o) => b.str_field("output", o),
                None => b.null_field("output"),
            }
        }
        ItemStatus::Error { message } => {
            b.str_field("status", "error").str_field("message", message)
        }
    }
}
