//! A per-connection session (handle table, request dispatcher, pipelined
//! v2 loop), plus the only frame reader and the sequential (v1) loop,
//! [`serve_stream`], that drives any [`Handler`]: a session or the relay.
//!
//! Handles are **session-scoped**: `typecheck {"handle": …}` resolves only
//! what *this* connection registered, so a connection's responses are a
//! pure function of its own requests — interleaving with other clients can
//! never change a response byte. The artifacts behind the handles are
//! process-wide ([`crate::state::Shared`]); registration of
//! already-registered content is a hash lookup.
//!
//! # Sequential v1, pipelined v2
//!
//! Every connection starts sequential (protocol v1): one frame in, one
//! frame out, request order. A `hello` with `max_v: 2` upgrades the
//! connection to the pipelined loop ([`serve_stream`] switches over after
//! writing the hello reply):
//!
//! * the **reader** keeps pulling frames. Order-sensitive or cheap ops
//!   (`hello`, `ping`, `register`, `register_bin`, `stats`) execute right
//!   there, in request order — so the handle table always reflects the
//!   request prefix, and a `typecheck` by handle sent after its `register`
//!   can never miss;
//! * expensive ops (`typecheck`, `batch`, `batch_bin`) are *planned* in
//!   the reader (handles resolved against the session table, thread counts
//!   clamped) and dispatched to a per-connection **worker pool**. At most
//!   `pipeline` (the negotiated depth) jobs are in flight; the reader
//!   blocks admission beyond that — backpressure by not reading;
//! * a single **writer** drains a batched outbox (`Outbox`), writing
//!   responses in completion order with one `write` + one flush per
//!   batch — thousands of memo-hit responses coalesce into a handful of
//!   syscalls.
//!
//! Because planning happens in request order and each job's result depends
//! only on its own resolved inputs (verdicts are content-derived, the
//! shared cache never changes outcomes), the response *bytes per id* are
//! a pure function of the request stream at every depth — the property the
//! differential suite pins against sequential v1 and one-shot runs. Only
//! the response *order* is scheduling-dependent, and ids are the
//! correlation key.

use crate::proto::{self, code, BatchItemReq, Edit, Op, Reject, Request, ResponseBuilder, Target};
use crate::state::{apply_edit, Prepared, ServerCounters, Shared};
use std::io::{BufRead, ErrorKind, Read, Write};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xmlta_base::FxHashMap;
use xmlta_service::batch::{result_json_line, run_batch, stream_batch_items, BatchItem};
use xmlta_service::{
    check_instance, check_instance_keyed, parse_instance, print_instance, ItemStatus, Json,
    RetainedEngine,
};

/// What the connection loop should do after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading frames.
    Continue,
    /// The client asked the server to shut down.
    Shutdown,
}

/// Why [`serve_stream`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client closed the connection.
    Eof,
    /// A `shutdown` request was served.
    Shutdown,
    /// An oversized frame closed the connection.
    Oversized,
    /// No frame arrived within the read/idle timeout; the connection was
    /// closed after a `read-timeout` error frame.
    TimedOut,
}

/// A connection's frame handler, driven by [`serve_stream`]'s sequential
/// loop: a daemon [`Session`], or the router's relay to its shard fleet.
pub trait Handler {
    /// Answers one frame: the reply (one or more `\n`-joined frames,
    /// without the final newline) and what the loop does next.
    fn answer(&mut self, line: &str) -> (String, Control);
    /// Where a read timeout is tallied.
    fn counters(&self) -> &ServerCounters;
    /// The read/idle timeout the transport armed on the stream, if any.
    fn read_timeout(&self) -> Option<Duration>;
    /// The session to hand the connection to once a `hello` has
    /// negotiated the pipelined (v2) loop; only a [`Session`] ever does.
    fn pipelined(&mut self) -> Option<&mut Session> {
        None
    }
}

impl Handler for Session {
    fn answer(&mut self, line: &str) -> (String, Control) {
        self.handle_frame(line)
    }

    fn counters(&self) -> &ServerCounters {
        self.shared.counters()
    }

    fn read_timeout(&self) -> Option<Duration> {
        self.read_timeout
    }

    fn pipelined(&mut self) -> Option<&mut Session> {
        (self.version >= 2).then_some(self)
    }
}

/// A connection's session state.
pub struct Session {
    shared: Arc<Shared>,
    handles: FxHashMap<String, Arc<Prepared>>,
    /// Connection number for trace attribution (0 = stdio/in-process).
    conn: u64,
    max_batch_threads: usize,
    /// Negotiated protocol version (1 until a `hello` upgrades to 2).
    version: u64,
    /// Server cap on the pipeline depth a `hello` may request.
    pipeline_cap: usize,
    /// Granted pipeline depth (set at the v2 upgrade).
    depth: usize,
    /// The transport's read/idle timeout, when one is armed (the stream
    /// itself enforces it; the session only needs it to render the
    /// `read-timeout` frame and to tell a timeout from a hard IO error).
    read_timeout: Option<Duration>,
}

/// What the reader decided about one parsed request.
enum Planned {
    /// Answer (or already answered) synchronously.
    Reply(String, Control),
    /// Ship to the worker pool (v2) or execute inline (v1).
    Job(Job),
}

/// A fully resolved unit of concurrent work. Everything order-sensitive
/// (handle resolution, thread clamping, deadline arithmetic) already
/// happened in the reader, so executing a job touches only its own inputs
/// and the process-wide cache.
struct Job {
    /// The echoed id.
    id: Json,
    /// The client deadline: the expiry instant plus the original
    /// `deadline_ms` (for the shed message). `None` — the common case —
    /// means the execution path never reads the clock.
    deadline: Option<(Instant, u64)>,
    /// The resolved work.
    kind: JobKind,
    /// The trace context of the request this job answers, captured in the
    /// reader so worker-thread spans attribute to the right connection
    /// and request id.
    ctx: xmlta_obs::Ctx,
}

/// The work behind a [`Job`].
enum JobKind {
    /// Typecheck one instance.
    Typecheck {
        /// The resolved target.
        work: TypecheckWork,
    },
    /// Typecheck many instances and render the deterministic report.
    Batch {
        /// Resolved items (handles already looked up).
        items: Vec<BatchItem>,
        /// Clamped worker count for this batch.
        threads: usize,
    },
    /// Decode a delta `.xts` stream and batch-typecheck its instances.
    BatchBin {
        /// The raw stream bytes (decoded in the worker — decoding is part
        /// of the concurrent work).
        data: Vec<u8>,
        /// Clamped worker count for this batch.
        threads: usize,
        /// Reply per item (one frame per result + a tally frame) instead
        /// of one monolithic report frame.
        stream: bool,
    },
}

/// A typecheck target after handle resolution.
enum TypecheckWork {
    /// A registered instance (handle resolved in the reader), carrying
    /// its memo key from registration.
    Prepared(Arc<Prepared>),
    /// Inline textual source (parsed in the worker).
    Source(String),
}

impl Session {
    /// A fresh session over the process-wide state.
    pub fn new(shared: Arc<Shared>) -> Session {
        Session {
            shared,
            handles: FxHashMap::default(),
            conn: 0,
            max_batch_threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            version: proto::PROTOCOL_VERSION,
            pipeline_cap: proto::DEFAULT_PIPELINE_DEPTH,
            depth: 1,
            read_timeout: None,
        }
    }

    /// Sets the cap on the pipeline depth a `hello` may negotiate
    /// (clamped to at least 1).
    pub fn set_pipeline_cap(&mut self, cap: usize) {
        self.pipeline_cap = cap.max(1);
    }

    /// Sets the connection number trace spans attribute to (socket
    /// transports number connections from 1; 0 = stdio/in-process).
    pub fn set_conn(&mut self, conn: u64) {
        self.conn = conn;
    }

    /// Declares the read/idle timeout the transport has armed on the
    /// underlying stream, so a blocked read erroring with
    /// `WouldBlock`/`TimedOut` is answered with a structured
    /// `read-timeout` frame instead of tearing the worker down.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    /// The connection's negotiated protocol version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The granted pipeline depth (1 until a v2 `hello` raises it).
    pub fn pipeline_depth(&self) -> usize {
        self.depth
    }

    /// Handles one frame synchronously, producing the response line (no
    /// `\n`) and the control verdict — the v1 path, and the semantic
    /// reference the pipelined loop must agree with per id. Panics inside
    /// request handling are caught and answered with an `internal` error —
    /// one adversarial request must not take down the connection, let
    /// alone the server.
    pub fn handle_frame(&mut self, line: &str) -> (String, Control) {
        match self.plan_line(line) {
            Planned::Reply(reply, control) => (reply, control),
            Planned::Job(job) => (run_job(&self.shared, job), Control::Continue),
        }
    }

    /// Parses and plans one frame, catching panics in the planning step.
    fn plan_line(&mut self, line: &str) -> Planned {
        // Reset the trace context before the id is known: a parse reject
        // attributes to `null`, everything after to the frame's id.
        xmlta_obs::set_ctx(self.conn, "null");
        let parse_span = xmlta_obs::span("parse");
        let request = match proto::parse_request(line, self.version) {
            Ok(r) => r,
            Err(reject) => return Planned::Reply(proto::error_frame(&reject), Control::Continue),
        };
        parse_span.finish();
        xmlta_obs::set_ctx(self.conn, &request.id.to_string());
        let id = request.id.clone();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.plan(request))) {
            Ok(planned) => planned,
            Err(payload) => Planned::Reply(panic_frame(id, &payload), Control::Continue),
        }
    }

    /// Plans a parsed request: synchronous ops are answered here (request
    /// order); expensive ops come back as resolved [`Job`]s.
    fn plan(&mut self, request: Request) -> Planned {
        let id = request.id;
        // The only per-request clock read, and only for requests that
        // carry a `deadline_ms` — undeadlined traffic never touches the
        // clock (the hot-path guarantee the bench pins).
        let deadline = request
            .deadline_ms
            .map(|ms| (Instant::now() + Duration::from_millis(ms), ms));
        let reply = match request.op {
            Op::Hello {
                accepts,
                max_v,
                pipeline,
            } => self.hello(&id, accepts, max_v, pipeline),
            Op::Ping => proto::ok_frame(&id),
            Op::Register { source } => {
                let resolve_span = xmlta_obs::span("resolve");
                let registered = self.shared.register(&source);
                resolve_span.finish();
                match registered {
                    Ok(prepared) => self.adopt_handle(&id, prepared),
                    Err(e) => proto::error_frame(&Reject {
                        id,
                        code: code::INVALID_INSTANCE,
                        message: format!("parse error: {e}"),
                    }),
                }
            }
            Op::RegisterBin { data } => {
                let resolve_span = xmlta_obs::span("resolve");
                let registered = self.shared.register_binary(&data);
                resolve_span.finish();
                match registered {
                    Ok(prepared) => self.adopt_handle(&id, prepared),
                    Err(e) => proto::error_frame(&Reject {
                        id,
                        code: code::INVALID_INSTANCE,
                        message: format!("decode error: {e}"),
                    }),
                }
            }
            Op::Typecheck { target } => {
                let resolve_span = xmlta_obs::span("resolve");
                let work = match target {
                    Target::Handle(handle) => match self.handles.get(&handle) {
                        Some(prepared) => TypecheckWork::Prepared(Arc::clone(prepared)),
                        None => {
                            return Planned::Reply(
                                proto::error_frame(&Reject {
                                    id,
                                    code: code::UNKNOWN_HANDLE,
                                    message: format!(
                                        "handle `{handle}` was not registered on this connection"
                                    ),
                                }),
                                Control::Continue,
                            )
                        }
                    },
                    Target::Source(source) => TypecheckWork::Source(source),
                };
                resolve_span.finish();
                return Planned::Job(Job {
                    id,
                    deadline,
                    kind: JobKind::Typecheck { work },
                    ctx: xmlta_obs::ctx(),
                });
            }
            Op::Batch { items, threads } => {
                let resolve_span = xmlta_obs::span("resolve");
                let mut resolved = Vec::with_capacity(items.len());
                for BatchItemReq { name, target } in items {
                    match target {
                        Target::Source(source) => {
                            resolved.push(BatchItem::from_source(name, source))
                        }
                        Target::Handle(handle) => match self.handles.get(&handle) {
                            Some(prepared) => resolved.push(BatchItem::from_keyed(
                                name,
                                Arc::clone(&prepared.instance),
                                prepared.key(),
                            )),
                            None => {
                                return Planned::Reply(
                                    proto::error_frame(&Reject {
                                        id,
                                        code: code::UNKNOWN_HANDLE,
                                        message: format!(
                                            "batch item `{name}`: handle `{handle}` was not \
                                             registered on this connection"
                                        ),
                                    }),
                                    Control::Continue,
                                )
                            }
                        },
                    }
                }
                resolve_span.finish();
                return Planned::Job(Job {
                    id,
                    deadline,
                    kind: JobKind::Batch {
                        items: resolved,
                        threads: self.clamp_threads(threads),
                    },
                    ctx: xmlta_obs::ctx(),
                });
            }
            Op::BatchBin {
                data,
                threads,
                stream,
            } => {
                return Planned::Job(Job {
                    id,
                    deadline,
                    kind: JobKind::BatchBin {
                        data,
                        threads: self.clamp_threads(threads),
                        stream,
                    },
                    ctx: xmlta_obs::ctx(),
                });
            }
            Op::Update { handle, edit } => self.update(&id, &handle, &edit),
            Op::Stats => {
                let s = self.shared.cache().stats();
                let c = self.shared.counters();
                // The first 20 keys are the v1 surface, pinned byte for
                // byte by the compat golden — stats v2 only *appends*
                // (uptime, version, protocol range, histograms), so v1
                // clients parse replies unchanged.
                let stats = format!(
                    "{{\"schema_hits\":{},\"schema_misses\":{},\"rule_hits\":{},\
                     \"rule_misses\":{},\"bout_hits\":{},\"bout_misses\":{},\
                     \"memo_hits\":{},\"memo_misses\":{},\"memo_evictions\":{},\
                     \"store_hits\":{},\"store_misses\":{},\"store_writes\":{},\
                     \"store_corrupt\":{},\
                     \"registered\":{},\"evictions\":{},\"session_handles\":{},\
                     \"conns_accepted\":{},\"overload_sheds\":{},\
                     \"deadline_sheds\":{},\"read_timeouts\":{},\
                     \"uptime_ms\":{},\"version\":\"{}\",\"protocol\":{},\
                     \"protocol_min\":{},\"protocol_max\":{},\"hist\":{},\
                     \"update_reqs\":{},\"components_reused\":{}}}",
                    s.schema_hits,
                    s.schema_misses,
                    s.rule_hits,
                    s.rule_misses,
                    s.bout_hits,
                    s.bout_misses,
                    s.memo_hits,
                    s.memo_misses,
                    s.memo_evictions,
                    s.store_hits,
                    s.store_misses,
                    s.store_writes,
                    s.store_corrupt,
                    self.shared.registered(),
                    self.shared.evictions(),
                    self.handles.len(),
                    c.conns_accepted.get(),
                    c.overload_sheds.get(),
                    c.deadline_sheds.get(),
                    c.read_timeouts.get(),
                    self.shared.uptime_ms(),
                    env!("CARGO_PKG_VERSION"),
                    self.version,
                    proto::PROTOCOL_VERSION,
                    proto::MAX_PROTOCOL_VERSION,
                    xmlta_obs::global().histograms_json(),
                    c.update_reqs.get(),
                    c.components_reused.get(),
                );
                ResponseBuilder::new(&id, true)
                    .raw_field("stats", &stats)
                    .finish()
            }
            Op::Trace { last } => {
                let events = xmlta_obs::tracer().recent(last);
                let mut arr = String::from("[");
                for (i, e) in events.iter().enumerate() {
                    if i > 0 {
                        arr.push(',');
                    }
                    arr.push_str(e);
                }
                arr.push(']');
                ResponseBuilder::new(&id, true)
                    .raw_field("events", &arr)
                    .finish()
            }
            Op::Shutdown => return Planned::Reply(proto::ok_frame(&id), Control::Shutdown),
        };
        Planned::Reply(reply, Control::Continue)
    }

    fn clamp_threads(&self, threads: Option<usize>) -> usize {
        threads.unwrap_or(1).clamp(1, self.max_batch_threads)
    }

    /// Answers a `hello`, negotiating the protocol version and pipeline
    /// depth when `max_v` is present. Plain hellos (no `max_v`, no
    /// `pipeline`) on an un-upgraded connection keep the original v1
    /// response, byte for byte.
    fn hello(
        &mut self,
        id: &Json,
        accepts: Option<Vec<String>>,
        max_v: Option<u64>,
        pipeline: Option<usize>,
    ) -> String {
        let bad = |message: String| {
            proto::error_frame(&Reject {
                id: id.clone(),
                code: code::BAD_REQUEST,
                message,
            })
        };
        match max_v {
            None => {
                if pipeline.is_some() {
                    return bad("`pipeline` requires `max_v` 2 or higher".into());
                }
            }
            Some(_) if self.version >= 2 => {
                return bad("protocol already negotiated on this connection".into());
            }
            Some(max_v) => {
                let grant = max_v.min(proto::MAX_PROTOCOL_VERSION);
                if grant >= 2 {
                    let depth = pipeline.unwrap_or(self.pipeline_cap);
                    if depth > self.pipeline_cap {
                        return proto::error_frame(&Reject {
                            id: id.clone(),
                            code: code::PIPELINE_DEPTH_EXCEEDED,
                            message: format!(
                                "pipeline depth {depth} exceeds this server's cap of {}",
                                self.pipeline_cap
                            ),
                        });
                    }
                    self.version = grant;
                    self.depth = depth;
                } else if pipeline.is_some() {
                    return bad("`pipeline` requires `max_v` 2 or higher".into());
                }
            }
        }
        let b = ResponseBuilder::new(id, true)
            .str_field("server", "xmltad")
            .num_field("protocol", self.version);
        let b = match accepts {
            // No `accepts`: no `formats` field — v1 text clients see
            // nothing new.
            None => b,
            Some(accepts) => {
                let matched: Vec<Json> = proto::FORMATS
                    .iter()
                    .filter(|f| accepts.iter().any(|a| a == *f))
                    .map(|f| Json::Str((*f).to_string()))
                    .collect();
                b.raw_field("formats", &Json::Arr(matched).to_string())
            }
        };
        if self.version >= 2 {
            b.num_field("pipeline", self.depth as u64).finish()
        } else {
            b.finish()
        }
    }

    /// Installs a freshly registered artifact into this session's handle
    /// table and renders the `register`/`register_bin` response.
    fn adopt_handle(&mut self, id: &Json, prepared: Arc<Prepared>) -> String {
        let handle = prepared.handle.clone();
        self.handles.insert(handle.clone(), prepared);
        ResponseBuilder::new(id, true)
            .str_field("handle", &handle)
            .finish()
    }

    /// Serves an `update`: resolves the predecessor handle, applies the
    /// structured edit, registers the successor under its own
    /// content-derived handle (the canonical printed source — exactly what
    /// a from-scratch `register` of that source would yield), and computes
    /// its verdict incrementally where the retained engine applies. The
    /// edited instance is adopted in the form its print parses to, so the
    /// print is only hashed for the handle, never re-parsed
    /// ([`Shared::register_edited`]).
    ///
    /// Runs synchronously in the reader like `register` — it mutates the
    /// session handle table, so it must see (and be seen by) the request
    /// prefix in order.
    fn update(&mut self, id: &Json, handle: &str, edit: &Edit) -> String {
        let _span = xmlta_obs::span("update");
        let counters = self.shared.counters();
        counters.update_reqs.bump();
        let Some(old) = self.handles.get(handle).map(Arc::clone) else {
            return proto::error_frame(&Reject {
                id: id.clone(),
                code: code::UNKNOWN_HANDLE,
                message: format!("handle `{handle}` was not registered on this connection"),
            });
        };
        let edited = match apply_edit(&old.instance, edit) {
            Ok(edited) => edited,
            Err(message) => {
                return proto::error_frame(&Reject {
                    id: id.clone(),
                    code: code::BAD_REQUEST,
                    message: format!("bad edit: {message}"),
                })
            }
        };
        let printed = match print_instance(&edited) {
            Ok(printed) => printed,
            Err(e) => {
                return proto::error_frame(&Reject {
                    id: id.clone(),
                    code: code::BAD_REQUEST,
                    message: format!("bad edit: edited instance does not print: {e}"),
                })
            }
        };
        let resolve_span = xmlta_obs::span("resolve");
        let new = self.shared.register_edited(printed, edited, &old);
        resolve_span.finish();
        let reused = new.fingerprints().shared_with(old.fingerprints()) as u64;
        counters.components_reused.add(reused);
        let status = update_status(&self.shared, &old, &new);
        self.handles.insert(new.handle.clone(), Arc::clone(&new));
        let b = ResponseBuilder::new(id, true).str_field("handle", &new.handle);
        status_fields(b, &status)
            .num_field("components_reused", reused)
            .finish()
    }
}

/// Computes the successor version's verdict, chaining the predecessor's
/// retained Lemma 14 engine when the edit left both schemas and the
/// alphabet untouched — only the ancestor closure of the edited symbols is
/// re-run ([`xmlta_service::incremental`]).
///
/// Byte fidelity: an incrementally updated engine decides only the
/// verdict. `TypeChecks` carries no witness bytes; a failing verdict
/// re-renders through the canonical [`check_instance_keyed`] path, so
/// counterexample bytes match a from-scratch check exactly. The first
/// update of a chain builds the engine once and serves the build's own
/// status, which is byte-identical to the canonical path's.
///
/// Both versions carry their fingerprints and memo keys from registration,
/// so nothing here hashes an instance; the successor's verdict is filed
/// under its carried key with its own `Arc`, so the follow-up `typecheck`
/// of the new handle hits by pointer identity.
fn update_status(shared: &Shared, old: &Prepared, new: &Prepared) -> ItemStatus {
    let cache = shared.cache();
    let (fp_old, fp_new) = (old.fingerprints(), new.fingerprints());
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
            if let Ok((type_checks, _reuse)) = engine.recheck(&new.instance.transducer) {
                // The updated engine reflects the successor either way;
                // park it there so the next edit in the chain is
                // incremental too.
                *new.engine
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(engine);
                if type_checks {
                    cache.memo_insert(new.key(), &new.instance, &ItemStatus::TypeChecks);
                    return ItemStatus::TypeChecks;
                }
                return check_instance_keyed(&new.instance, Some(new.key()), Some(cache));
            }
            // Unsupported edit shape (the engine may be stale): drop it
            // and fall through to a from-scratch check.
        }
    }
    // No engine to chain from (first update in a chain, a schema edit, or
    // an unsupported transducer edit): seed an engine on the successor so
    // the *next* update is incremental, and serve the status its build
    // computed; otherwise run the full check through the canonical path.
    if RetainedEngine::applicable(&new.instance) {
        let mut slot = new
            .engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            let (engine, status) = RetainedEngine::build(cache, &new.instance);
            *slot = engine;
            cache.memo_insert(new.key(), &new.instance, &status);
            return status;
        }
    }
    check_instance_keyed(&new.instance, Some(new.key()), Some(cache))
}

/// Executes a resolved job, converting panics into `internal` error
/// replies (the same isolation [`Session::handle_frame`] gives sync ops).
/// Work whose client deadline has already expired is shed with a
/// `deadline-exceeded` reply before any typechecking starts — on a
/// pipelined connection this is where queued-but-stale work dies.
fn run_job(shared: &Shared, job: Job) -> String {
    // Workers adopt the reader's context first, so the root `request`
    // span (and everything it nests) attributes to the right connection
    // and request id regardless of which thread runs the job.
    xmlta_obs::adopt_ctx(job.ctx.clone());
    let _request_span = xmlta_obs::span("request");
    if let Some((expires, ms)) = job.deadline {
        if Instant::now() >= expires {
            shared.counters().deadline_sheds.bump();
            return proto::error_frame(&proto::deadline_reject(job.id, ms));
        }
    }
    let id = job.id.clone();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_job(shared, job))) {
        Ok(reply) => reply,
        Err(payload) => panic_frame(id, &payload),
    }
}

fn execute_job(shared: &Shared, job: Job) -> String {
    let _check_span = xmlta_obs::span("check");
    let id = job.id;
    match job.kind {
        JobKind::Typecheck { work } => {
            let status = match work {
                TypecheckWork::Prepared(prepared) => check_instance_keyed(
                    &prepared.instance,
                    Some(prepared.key()),
                    Some(shared.cache()),
                ),
                TypecheckWork::Source(source) => match parse_instance(&source) {
                    Ok(instance) => check_instance(&Arc::new(instance), Some(shared.cache())),
                    Err(e) => ItemStatus::Error {
                        message: format!("parse error: {e}"),
                    },
                },
            };
            status_reply(&id, &status)
        }
        JobKind::Batch { items, threads } => batch_reply(shared, &id, &items, threads),
        JobKind::BatchBin {
            data,
            threads,
            stream,
        } => {
            // Decoding the `.xts` stream is part of the concurrent work;
            // trace it as the worker-side `parse`.
            let parse_span = xmlta_obs::span("parse");
            let decoded = stream_batch_items(&data);
            parse_span.finish();
            match decoded {
                Ok(items) if stream => streamed_batch_reply(shared, &id, &items, threads),
                Ok(items) => batch_reply(shared, &id, &items, threads),
                Err(e) => proto::error_frame(&Reject {
                    id,
                    code: code::INVALID_INSTANCE,
                    message: format!("decode error: {e}"),
                }),
            }
        }
    }
}

/// Runs a resolved batch and renders its report response.
fn batch_reply(shared: &Shared, id: &Json, items: &[BatchItem], threads: usize) -> String {
    let outcome = run_batch(items, threads, Some(shared.cache()));
    ResponseBuilder::new(id, true)
        .raw_field("report", &outcome.to_json_line())
        .finish()
}

/// Runs a resolved batch and renders the streamed reply: one frame per
/// result in report order, then a closing tally frame. Rendered as ONE
/// newline-joined string so the whole sequence is pushed to the outbox
/// atomically — frames of concurrent jobs never interleave, and the
/// per-id byte sequence stays a pure function of the request (the
/// pipelining determinism invariant).
fn streamed_batch_reply(shared: &Shared, id: &Json, items: &[BatchItem], threads: usize) -> String {
    let outcome = run_batch(items, threads, Some(shared.cache()));
    let mut out = String::new();
    for r in &outcome.results {
        out.push_str(
            &ResponseBuilder::new(id, true)
                .raw_field("item", &result_json_line(r))
                .finish(),
        );
        out.push('\n');
    }
    out.push_str(
        &ResponseBuilder::new(id, true)
            .raw_field("report", &outcome.tally_json_line())
            .finish(),
    );
    out
}

/// Renders the `internal` error reply for a caught panic payload.
fn panic_frame(id: Json, payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string());
    proto::error_frame(&Reject {
        id,
        code: code::INTERNAL,
        message: format!("request handler panicked: {msg}"),
    })
}

/// Renders a typecheck status response (shared by `typecheck` results and
/// mirrored by the per-item records inside batch reports).
fn status_reply(id: &Json, status: &ItemStatus) -> String {
    status_fields(ResponseBuilder::new(id, true), status).finish()
}

/// Appends a verdict's `status` field and its payload: the
/// counterexample's `input`/`output`, or the error's `message`.
fn status_fields(b: ResponseBuilder, status: &ItemStatus) -> ResponseBuilder {
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

/// What [`read_raw`] found on the stream.
pub(crate) enum Raw {
    /// The stream ended.
    Eof,
    /// The line exceeds the frame cap (the buffer holds a prefix).
    Oversized,
    /// `buf` holds one complete frame (newline stripped).
    Ready,
}

/// Reads one newline-terminated frame into `buf`, enforcing the size cap
/// without unbounded buffering — the only frame reader on either side of
/// the wire. `buf` is empty between frames; the caller clears it once it
/// has used a frame. A read that fails (a read timeout firing mid-frame)
/// leaves the bytes it consumed in `buf`, so retrying the call resumes
/// the same frame rather than parsing its suffix.
pub(crate) fn read_raw<R: BufRead>(
    reader: &mut R,
    max_frame: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<Raw> {
    // Read at most one byte past the cap, counting any resumed prefix: a
    // line that long is oversized whether or not its newline ever arrives.
    let budget = max_frame.saturating_add(1).saturating_sub(buf.len());
    reader.by_ref().take(budget as u64).read_until(b'\n', buf)?;
    if buf.is_empty() {
        return Ok(Raw::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > max_frame {
        return Ok(Raw::Oversized);
    }
    Ok(Raw::Ready)
}

/// The `oversized-frame` reject for the configured cap.
fn oversized_reject(max_frame: usize) -> Reject {
    Reject {
        id: Json::Null,
        code: code::OVERSIZED_FRAME,
        message: format!("frame exceeds {max_frame} bytes; closing the connection"),
    }
}

/// The `malformed-frame` reject for a non-UTF-8 frame.
fn bad_utf8_reject() -> Reject {
    Reject {
        id: Json::Null,
        code: code::MALFORMED_FRAME,
        message: "frame is not valid UTF-8".to_string(),
    }
}

/// The armed timeout in milliseconds when `e` is it firing (never when no
/// timeout is armed — a genuine `WouldBlock` on an unarmed stream stays a
/// hard error).
fn timeout_ms(armed: Option<Duration>, e: &std::io::Error) -> Option<u64> {
    let armed = armed?;
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
        .then(|| armed.as_millis() as u64)
}

/// The `read-timeout` frame closing an idle connection, tallied.
fn timed_out_frame(ms: u64, counters: &ServerCounters) -> String {
    counters.read_timeouts.bump();
    proto::error_frame(&proto::read_timeout_reject(ms))
}

/// Runs a connection's handler over a framed byte stream until EOF,
/// shutdown, or an oversized frame. In v1 mode it writes one response
/// line per request line, in request order, flushing after each. When a
/// `hello` negotiates protocol 2 the loop hands the session over to the
/// pipelined engine: responses then arrive in completion order
/// (correlated by id) and flushes coalesce.
pub fn serve_stream<H: Handler, R: BufRead + Send, W: Write>(
    handler: &mut H,
    mut reader: R,
    mut writer: W,
    max_frame: usize,
) -> std::io::Result<SessionEnd> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        // Each read yields one reply line, and the end it brings, if any.
        let (reply, end) = match read_raw(&mut reader, max_frame, &mut buf) {
            Ok(Raw::Eof) => return Ok(SessionEnd::Eof),
            Ok(Raw::Oversized) => (
                proto::error_frame(&oversized_reject(max_frame)),
                Some(SessionEnd::Oversized),
            ),
            Ok(Raw::Ready) if buf.iter().all(u8::is_ascii_whitespace) => continue,
            Ok(Raw::Ready) => match std::str::from_utf8(&buf) {
                Ok(line) => {
                    let (reply, control) = handler.answer(line);
                    let end = (control == Control::Shutdown).then_some(SessionEnd::Shutdown);
                    (reply, end)
                }
                Err(_) => (proto::error_frame(&bad_utf8_reject()), None),
            },
            Err(e) => {
                let Some(ms) = timeout_ms(handler.read_timeout(), &e) else {
                    return Err(e);
                };
                // The armed idle window elapsed with no frame: tell the
                // client why in-band, then close. A v1 connection is never
                // mid-request here — reads only happen between requests.
                let frame = timed_out_frame(ms, handler.counters());
                (frame, Some(SessionEnd::TimedOut))
            }
        };
        let respond_span = xmlta_obs::span("respond");
        writeln!(writer, "{reply}")?;
        writer.flush()?;
        respond_span.finish();
        if let Some(end) = end {
            return Ok(end);
        }
        if let Some(session) = handler.pipelined() {
            // The hello reply above was the last sequential frame; every
            // frame from here on flows through the pipelined engine.
            return serve_pipelined(session, &mut reader, &mut writer, max_frame);
        }
    }
}

/// Admission gate for in-flight jobs: a counter under a mutex with a
/// condvar for both directions (reader waits for free slots, shutdown
/// waits for drain).
///
/// Admission uses **hysteresis**: once the window fills, the reader is
/// parked until in-flight drops to the low watermark (half the depth),
/// then admits a burst. Without it, a saturated connection degenerates
/// into one wake-up per completed job — on a single core that is two
/// context switches per request, which costs more than pipelining saves.
/// Workers likewise notify only at watermark crossings, so the condvar
/// never generates per-job traffic. Burst admission does not affect
/// response content: jobs are still planned and admitted in request
/// order, only the *parking pattern* changes.
struct Gate {
    inflight: Mutex<usize>,
    changed: Condvar,
    /// Resume-admission watermark (`depth / 2`).
    low: usize,
}

impl Gate {
    fn new(depth: usize) -> Gate {
        Gate {
            inflight: Mutex::new(0),
            changed: Condvar::new(),
            low: depth / 2,
        }
    }

    /// Blocks until the window has room (with hysteresis), then admits
    /// one job.
    fn admit(&self, depth: usize) {
        let mut n = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if *n >= depth {
            while *n > self.low {
                n = self
                    .changed
                    .wait(n)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        *n += 1;
    }

    /// Jobs currently in flight (a point-in-time read for the idle check).
    fn inflight(&self) -> usize {
        *self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Marks one job complete (its response is already queued); returns
    /// the number of jobs still in flight.
    fn release(&self) -> usize {
        let mut n = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *n -= 1;
        // The reader parks only at the watermarks; anything between is
        // silent (there is exactly one waiter — the reader — and it waits
        // for `low` in admit or 0 in drain).
        if *n == self.low || *n == 0 {
            self.changed.notify_all();
        }
        *n
    }

    /// Blocks until no job is in flight.
    fn drain(&self) {
        let mut n = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while *n > 0 {
            n = self
                .changed
                .wait(n)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The response staging area between producers (reader + workers) and the
/// writer. A plain channel would wake the writer once per response — two
/// context switches and one flush per request once the writer outpaces
/// the workers, exactly the per-request costs pipelining exists to kill.
/// Instead, responses accumulate under a mutex and the writer is notified
/// only when a *batch* is worth writing: `batch` responses are pending, a
/// synchronous reply wants prompt delivery, or the connection went
/// quiescent (no job in flight — the last completion nudges). Every push
/// is eventually followed by a notify: job pushes happen before their
/// gate release, so the release that observes zero in-flight can never
/// precede a straggler's push.
struct Outbox {
    state: Mutex<OutboxState>,
    ready: Condvar,
    /// Notify the writer once this many responses are pending.
    batch: usize,
}

struct OutboxState {
    /// Pending response bytes, newline-framed — one `write_all` per
    /// batch, no per-line formatting in the writer.
    pending: Vec<u8>,
    /// Responses accumulated in `pending` (the batch trigger).
    count: usize,
    /// Live producers (reader + workers); the writer exits when the last
    /// one leaves and the pending batch is drained.
    producers: usize,
}

impl Outbox {
    fn new(producers: usize, batch: usize) -> Outbox {
        Outbox {
            state: Mutex::new(OutboxState {
                pending: Vec::new(),
                count: 0,
                producers,
            }),
            ready: Condvar::new(),
            batch: batch.max(1),
        }
    }

    /// Queues one response; `urgent` forces a writer wake-up.
    fn push(&self, line: &str, urgent: bool) {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        s.pending.extend_from_slice(line.as_bytes());
        s.pending.push(b'\n');
        s.count += 1;
        if urgent || s.count >= self.batch {
            self.ready.notify_all();
        }
    }

    /// Wakes the writer without queueing (the quiescence nudge).
    fn nudge(&self) {
        let _s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.ready.notify_all();
    }

    /// A producer is done; the last one out wakes the writer for the
    /// final drain.
    fn leave(&self) {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        s.producers -= 1;
        if s.producers == 0 {
            self.ready.notify_all();
        }
    }

    /// Blocks for the next batch of response bytes, swapping in `spare`
    /// as the fresh accumulator (double buffering — no allocation per
    /// batch); `None` once every producer left and the queue is drained.
    fn take(&self, mut spare: Vec<u8>) -> Option<Vec<u8>> {
        spare.clear();
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while s.pending.is_empty() && s.producers > 0 {
            s = self
                .ready
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if s.pending.is_empty() {
            return None;
        }
        s.count = 0;
        Some(std::mem::replace(&mut s.pending, spare))
    }
}

/// The pipelined (protocol v2) connection loop. See the module docs for
/// the architecture; invariants worth restating:
///
/// * job admission and all session-state mutation happen on the reader
///   thread in request order;
/// * workers queue their response *before* releasing the gate slot, so a
///   drained gate means every response is at least in the outbox — the
///   shutdown reply is therefore always the last frame;
/// * the outbox never blocks producers, so workers and the reader never
///   wait on a slow writer — the server keeps reading (absorbing
///   arbitrarily deep client pipelining) while the writer catches up.
fn serve_pipelined<R: BufRead + Send, W: Write>(
    session: &mut Session,
    reader: &mut R,
    writer: &mut W,
    max_frame: usize,
) -> std::io::Result<SessionEnd> {
    use std::sync::atomic::{AtomicBool, Ordering};

    let depth = session.depth;
    let workers = depth.min(session.max_batch_threads).max(1);
    let shared = Arc::clone(&session.shared);
    let gate = Gate::new(depth);
    let outbox = Outbox::new(workers + 1, depth / 2);
    // Set when the writer dies (broken pipe): the reader must stop
    // serving — nothing drains the outbox anymore, so continuing would
    // accumulate response bytes for a peer that can no longer hear them.
    let writer_dead = AtomicBool::new(false);
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);

    let (end, wrote) = std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = &job_rx;
            let gate = &gate;
            let shared = &shared;
            let outbox = &outbox;
            scope.spawn(move || {
                loop {
                    // Hold the receiver lock only for the blocking recv;
                    // execution runs unlocked.
                    let job = job_rx
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .recv();
                    let Ok(job) = job else { break };
                    // Queue before release (the shutdown-drain invariant);
                    // the last completion in a lull nudges the writer.
                    let reply = run_job(shared, job);
                    let respond_span = xmlta_obs::span("respond");
                    outbox.push(&reply, false);
                    respond_span.finish();
                    if gate.release() == 0 {
                        outbox.nudge();
                    }
                }
                outbox.leave();
            });
        }

        let reader_end = {
            let gate = &gate;
            let outbox = &outbox;
            let writer_dead = &writer_dead;
            let session = &mut *session;
            scope.spawn(move || -> std::io::Result<SessionEnd> {
                let job_tx = job_tx; // moved: dropped when the reader exits
                let mut buf: Vec<u8> = Vec::new();
                let end = loop {
                    if writer_dead.load(Ordering::Relaxed) {
                        // The response direction is gone; treat the
                        // connection as closed (the writer's error is what
                        // the caller will see). A reader already parked in
                        // a blocking read holds no pending responses, so
                        // only frames that actually arrive reach this
                        // check — memory stays bounded either way.
                        break SessionEnd::Eof;
                    }
                    buf.clear();
                    let raw = loop {
                        match read_raw(reader, max_frame, &mut buf) {
                            // The idle window elapsed — but a pipelined
                            // client legitimately goes quiet while it
                            // waits for in-flight work, so only a truly
                            // idle connection (nothing in flight) times
                            // out; otherwise re-arm and keep reading the
                            // same frame.
                            Err(e)
                                if gate.inflight() > 0
                                    && timeout_ms(session.read_timeout, &e).is_some() => {}
                            raw => break raw,
                        }
                    };
                    match raw {
                        Err(e) => {
                            if let Some(ms) = timeout_ms(session.read_timeout, &e) {
                                let frame = timed_out_frame(ms, session.shared.counters());
                                outbox.push(&frame, true);
                                break SessionEnd::TimedOut;
                            }
                            outbox.leave();
                            return Err(e);
                        }
                        Ok(Raw::Eof) => break SessionEnd::Eof,
                        Ok(Raw::Oversized) => {
                            outbox.push(&proto::error_frame(&oversized_reject(max_frame)), true);
                            break SessionEnd::Oversized;
                        }
                        Ok(Raw::Ready) => {}
                    }
                    if buf.iter().all(u8::is_ascii_whitespace) {
                        continue;
                    }
                    let Ok(line) = std::str::from_utf8(&buf) else {
                        outbox.push(&proto::error_frame(&bad_utf8_reject()), true);
                        continue;
                    };
                    match session.plan_line(line) {
                        // Synchronous replies want prompt delivery (a ping
                        // must not wait out a batch window).
                        Planned::Reply(reply, Control::Continue) => {
                            let respond_span = xmlta_obs::span("respond");
                            outbox.push(&reply, true);
                            respond_span.finish();
                        }
                        Planned::Reply(reply, Control::Shutdown) => {
                            // Every in-flight response is queued before the
                            // shutdown acknowledgment, making it the last
                            // frame on the connection.
                            gate.drain();
                            outbox.push(&reply, true);
                            break SessionEnd::Shutdown;
                        }
                        Planned::Job(job) => {
                            gate.admit(session.depth);
                            if job_tx.send(job).is_err() {
                                // Workers are gone (cannot happen while
                                // this sender lives; defensive).
                                gate.release();
                            }
                        }
                    }
                };
                outbox.leave();
                Ok(end)
            })
        };

        // This thread is the writer: drain batches, one write and one
        // flush per batch (the batch is already newline-framed bytes).
        let mut wrote: std::io::Result<()> = Ok(());
        let mut spare: Vec<u8> = Vec::new();
        while let Some(batch) = outbox.take(std::mem::take(&mut spare)) {
            let result = writer.write_all(&batch).and_then(|()| writer.flush());
            spare = batch;
            if let Err(e) = result {
                wrote = Err(e);
                break;
            }
        }
        // On a write error, tell the reader to stop serving: on a socket
        // it would hit EOF on its own, but an independent read direction
        // (stdio) could keep delivering frames whose responses nobody can
        // drain. Frames already in flight still complete harmlessly —
        // producers never block on the outbox.
        if wrote.is_err() {
            writer_dead.store(true, Ordering::Relaxed);
        }
        let end = reader_end
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (end, wrote)
    });
    wrote?;
    let end = end?;
    writer.flush()?;
    Ok(end)
}

#[cfg(test)]
mod tests {
    //! [`read_raw`] over a scripted reader whose read timeout fires
    //! mid-frame — the case the pipelined loop retries with jobs in flight.

    use super::{read_raw, Raw};
    use std::collections::VecDeque;
    use std::io::{BufReader, ErrorKind, Read};

    /// Yields each chunk in turn; `None` is a read timeout firing.
    struct Scripted(VecDeque<Option<&'static [u8]>>);

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(ErrorKind::WouldBlock.into()),
                Some(Some(chunk)) => {
                    out[..chunk.len()].copy_from_slice(chunk);
                    Ok(chunk.len())
                }
            }
        }
    }

    /// Reads one frame, retrying past the scripted timeout.
    fn frame_across_timeout(prefix: &'static [u8], suffix: &'static [u8], max: usize) -> Raw {
        let script = VecDeque::from([Some(prefix), None, Some(suffix)]);
        let mut reader = BufReader::new(Scripted(script));
        let mut buf = Vec::new();
        let err = read_raw(&mut reader, max, &mut buf).err().expect("timeout");
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        assert_eq!(buf, prefix, "the consumed prefix is kept");
        let raw = read_raw(&mut reader, max, &mut buf).expect("resumed read");
        if matches!(raw, Raw::Ready) {
            assert_eq!(
                buf, br#"{"id":1,"op":"ping"}"#,
                "the frame comes back whole"
            );
        }
        raw
    }

    #[test]
    fn a_frame_split_by_a_timeout_comes_back_whole() {
        let raw = frame_across_timeout(br#"{"id":1,"op":"#, b"\"ping\"}\n", 64);
        assert!(matches!(raw, Raw::Ready));
    }

    #[test]
    fn the_cap_counts_the_prefix_read_before_a_timeout() {
        // 13 + 7 bytes before the newline: each half fits a 16-byte cap,
        // the whole frame does not.
        let raw = frame_across_timeout(br#"{"id":1,"op":"#, b"\"ping\"}\n", 16);
        assert!(matches!(raw, Raw::Oversized));
    }
}
