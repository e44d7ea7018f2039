//! Process-wide server state: the shared schema cache and the
//! content-addressed registry of prepared instances.
//!
//! Every connection session resolves its handles against its own table
//! (see [`crate::session`]), so *visibility* is per-connection and
//! responses stay deterministic under concurrency; the expensive artifacts
//! behind those handles — parsed instances, compiled schema DFAs, Theorem
//! 20 `B_out` products — live here and are shared by every connection,
//! client, and batch for the life of the process. That is the whole point
//! of the daemon: PR 2's bench data shows repeated-schema batches dominated
//! by parse + compile costs that a process restart throws away.
//!
//! The registry is **bounded**: a least-recently-used entry is evicted
//! once more than [`Shared::registry_capacity`] distinct contents are
//! registered (re-registration counts as use). Eviction only forgets the
//! *dedup* entry — sessions keep their `Arc<Prepared>`, so every handle a
//! connection registered keeps resolving for that connection's lifetime,
//! and transcripts stay byte-identical no matter what was evicted in
//! between. The eviction count is visible through the `stats` op only.

use crate::proto::Edit;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use typecheck_core::{Instance, Schema};
use xmlta_automata::Regex;
use xmlta_base::fxhash::FxHasher;
use xmlta_obs::Counter;
use xmlta_schema::StringLang;
use xmlta_service::binfmt::{decode_instance, BinError};
use xmlta_service::canon::canonicalize;
use xmlta_service::lru::Lru;
use xmlta_service::{
    parse_instance, warm_instance, ArtifactBackend, ComponentFingerprints, ParseError,
    RetainedEngine, SchemaCache,
};

/// Default bound on distinct registered contents.
pub const DEFAULT_REGISTRY_CAPACITY: usize = 4096;

/// What a prepared instance was registered from (and is deduplicated by).
pub enum RegisteredContent {
    /// Textual `.xti` source.
    Text(String),
    /// A binary `.xtb` frame.
    Binary(Vec<u8>),
}

/// The registration kind, separated from the owned payload so the dedup
/// *lookup* can run on the caller's borrowed bytes — the owned
/// [`RegisteredContent`] is only built on a miss.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ContentKind {
    Text,
    Binary,
}

impl RegisteredContent {
    fn kind(&self) -> ContentKind {
        match self {
            RegisteredContent::Text(_) => ContentKind::Text,
            RegisteredContent::Binary(_) => ContentKind::Binary,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            RegisteredContent::Text(s) => s.as_bytes(),
            RegisteredContent::Binary(b) => b,
        }
    }

    /// Equality against a candidate registration (kind + full content).
    fn matches(&self, kind: ContentKind, bytes: &[u8]) -> bool {
        self.kind() == kind && self.as_bytes() == bytes
    }
}

/// A registered instance: parse (or decode) once, compile once,
/// fingerprint once, typecheck many times.
///
/// The memo key contract: [`Prepared::key`] equals
/// [`fingerprint_instance`](xmlta_service::fingerprint_instance)`(&instance)`
/// and [`Prepared::fingerprints`] equals
/// [`ComponentFingerprints::of`]`(&instance)`, both computed once at
/// registration. Typechecking by handle probes the
/// result memo with the carried key, and because every typecheck of this
/// handle passes the same `Arc`, its memo hits verify by pointer identity;
/// any other instance filed under the key is still verified structurally.
pub struct Prepared {
    /// The content-derived handle (see [`handle_for_source`]).
    pub handle: String,
    /// The registered content the handle was derived from.
    pub content: RegisteredContent,
    /// The parsed instance. Its per-schema products — compiled DTD rule
    /// DFAs, the Theorem 20 `B_out` product for NTA outputs — were pushed
    /// into the shared cache at registration, so typechecking it skips
    /// the front-end entirely and hits the cache on every product.
    pub instance: Arc<Instance>,
    /// See [`Prepared::fingerprints`]; private so the pair can only come
    /// from [`Shared`]'s registration, which computes it from `instance`.
    fingerprints: ComponentFingerprints,
    /// See [`Prepared::key`].
    key: u64,
    /// A Lemma 14 engine retained across `update` versions: an update
    /// resolving this prepared instance *takes* the engine, applies the
    /// edit incrementally, and parks the updated engine on the successor
    /// version. Empty until the first update touches this instance (and
    /// for instances the retained-engine path cannot serve).
    pub engine: Mutex<Option<RetainedEngine>>,
}

impl Prepared {
    /// The per-component fingerprints of the instance — what an `update`
    /// compares to count reused components and to decide whether the
    /// retained engine still applies.
    pub fn fingerprints(&self) -> &ComponentFingerprints {
        &self.fingerprints
    }

    /// The result-memo key of the instance (`fingerprints().combined()`).
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// The bounded dedup table: content hash → prepared instances with that
/// hash (more than one only on a 64-bit collision; entries are matched by
/// full content).
struct Registry {
    lru: Lru<u64, Vec<Arc<Prepared>>>,
    /// Prepared instances dropped by the LRU bound (bucket sizes summed).
    evicted: u64,
}

/// Serving counters, surfaced through the `stats` op. Each is an
/// [`xmlta_obs::Counter`] (a relaxed atomic), bumped and read directly:
/// they are monotonic tallies for operators, never synchronization. A
/// bump costs one uncontended atomic add. The robustness counters move
/// only on the *un*-happy paths (sheds, timeouts) or once per connection;
/// `update_reqs` and `components_reused` move on every `update` request.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections the accept loops handed to a session worker.
    pub conns_accepted: Counter,
    /// Connections shed at accept time with a `server-overloaded` reply
    /// because the connection cap was reached.
    pub overload_sheds: Counter,
    /// Requests shed with `deadline-exceeded` because their client
    /// deadline expired before a worker picked them up.
    pub deadline_sheds: Counter,
    /// Connections closed with a `read-timeout` reply because no frame
    /// arrived within the read/idle window.
    pub read_timeouts: Counter,
    /// `update` requests received (successful or rejected).
    pub update_reqs: Counter,
    /// Cumulative count of cache components (schema, alphabet, transducer
    /// header, and per-rule fingerprints) that successor versions shared
    /// with their predecessors across all `update` requests — the
    /// headline reuse signal for incremental rechecking.
    pub components_reused: Counter,
}

impl ServerCounters {
    /// Reads a counter (relaxed; tallies only). The server itself calls
    /// [`Counter::get`]; this is the accessor `tests/chaos.rs` reads the
    /// counters through.
    pub fn read(counter: &Counter) -> u64 {
        counter.get()
    }
}

/// The state shared by all connections of one server process.
pub struct Shared {
    cache: SchemaCache,
    registry: Mutex<Registry>,
    counters: ServerCounters,
    /// When this state was created — the daemon's birth for `uptime_ms`.
    started: Instant,
}

impl Shared {
    /// Fresh state with an empty cache and a default-capacity registry.
    pub fn new() -> Arc<Shared> {
        Shared::with_registry_capacity(DEFAULT_REGISTRY_CAPACITY)
    }

    /// Fresh state whose registry holds at most `capacity` distinct
    /// contents (0 disables registration dedup entirely: every register
    /// re-parses, handles still work).
    pub fn with_registry_capacity(capacity: usize) -> Arc<Shared> {
        Shared::with_capacities(capacity, xmlta_service::cache::DEFAULT_MEMO_CAPACITY)
    }

    /// Fresh state with explicit registry and typecheck-result-memo bounds
    /// (`--registry-cap` / `--memo-cap`; 0 disables the respective layer).
    pub fn with_capacities(registry_capacity: usize, memo_capacity: usize) -> Arc<Shared> {
        Shared::with_store(registry_capacity, memo_capacity, None)
    }

    /// Fresh state with an optional persistent artifact store mounted
    /// under the schema cache (`--store DIR`): compile misses read
    /// through it, fresh compiles are written behind, and the `stats` op
    /// surfaces the store counters.
    pub fn with_store(
        registry_capacity: usize,
        memo_capacity: usize,
        store: Option<Arc<dyn ArtifactBackend>>,
    ) -> Arc<Shared> {
        let mut cache = SchemaCache::with_memo_capacity(memo_capacity);
        if let Some(store) = store {
            cache.set_store(store);
        }
        Arc::new(Shared {
            cache,
            registry: Mutex::new(Registry {
                lru: Lru::new(registry_capacity),
                evicted: 0,
            }),
            counters: ServerCounters::default(),
            started: Instant::now(),
        })
    }

    /// The process-wide schema cache.
    pub fn cache(&self) -> &SchemaCache {
        &self.cache
    }

    /// The serving-robustness counters (accepts, sheds, timeouts).
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// Milliseconds since this state was created (the `stats` op's
    /// `uptime_ms`). Monotonic, so never goes backwards across reads.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Number of distinct registered instances currently retained.
    pub fn registered(&self) -> usize {
        self.registry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .lru
            .iter()
            .map(|(_, v)| v.len())
            .sum()
    }

    /// How many prepared instances the LRU bound has evicted so far.
    pub fn evictions(&self) -> u64 {
        self.registry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .evicted
    }

    /// The registry's configured capacity.
    pub fn registry_capacity(&self) -> usize {
        self.registry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .lru
            .capacity()
    }

    /// Registers textual `source`: parses and prepares it once per
    /// distinct content, process-wide. Re-registering equal content (from
    /// any connection) returns the existing artifact without parsing.
    pub fn register(&self, source: &str) -> Result<Arc<Prepared>, ParseError> {
        // The hit path touches only borrowed bytes — re-registration of
        // known content is a hash lookup, not a payload copy.
        if let Some(hit) = self.lookup(ContentKind::Text, source.as_bytes()) {
            return Ok(hit);
        }
        // Parse + prepare outside the lock; a racing register of the same
        // content can do the work twice but both land on equal artifacts.
        let instance = parse_instance(source)?;
        Ok(self.adopt(
            handle_for_source(source),
            RegisteredContent::Text(source.to_string()),
            instance,
            None,
        ))
    }

    /// Registers a binary `.xtb` frame; the binary twin of
    /// [`Shared::register`] (handles are derived from the frame bytes and
    /// start with `b` instead of `i`).
    pub fn register_binary(&self, bytes: &[u8]) -> Result<Arc<Prepared>, BinError> {
        if let Some(hit) = self.lookup(ContentKind::Binary, bytes) {
            return Ok(hit);
        }
        let instance = decode_instance(bytes)?;
        Ok(self.adopt(
            handle_for_binary(bytes),
            RegisteredContent::Binary(bytes.to_vec()),
            instance,
            None,
        ))
    }

    /// Registers an `update`'s successor: `edited`, an edit of `prev`, is
    /// adopted as the parse of `printed`, its print, under
    /// [`handle_for_source`]`(printed)` — the artifact a `register` of
    /// `printed` would yield, without parsing it: [`canonicalize`] brings
    /// `edited` to the structure that parse has. The components `edited`
    /// shares with `prev` keep their fingerprints. Known content returns
    /// the existing artifact, as [`Shared::register`] does.
    pub fn register_edited(
        &self,
        printed: String,
        mut edited: Instance,
        prev: &Prepared,
    ) -> Arc<Prepared> {
        if let Some(hit) = self.lookup(ContentKind::Text, printed.as_bytes()) {
            return hit;
        }
        canonicalize(&mut edited);
        self.adopt(
            handle_for_source(&printed),
            RegisteredContent::Text(printed),
            edited,
            Some(prev),
        )
    }

    /// The retained artifact for the given content, bumping its recency.
    fn lookup(&self, kind: ContentKind, bytes: &[u8]) -> Option<Arc<Prepared>> {
        let fp = fingerprint_content(kind, bytes);
        let mut registry = self
            .registry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        registry
            .lru
            .get(&fp)?
            .iter()
            .find(|p| p.content.matches(kind, bytes))
            .map(Arc::clone)
    }

    /// Prepares, fingerprints, and retains a freshly parsed/decoded
    /// instance, evicting the least recently used content when over
    /// capacity. `prev` is the version `instance` was edited from, if any:
    /// the components they share keep their fingerprints.
    fn adopt(
        &self,
        handle: String,
        content: RegisteredContent,
        instance: Instance,
        prev: Option<&Prepared>,
    ) -> Arc<Prepared> {
        let fp = fingerprint_content(content.kind(), content.as_bytes());
        let instance = self.prepare(instance);
        let fingerprints = match prev {
            Some(prev) => {
                ComponentFingerprints::of_edit(&prev.instance, prev.fingerprints(), &instance)
            }
            None => ComponentFingerprints::of(&instance),
        };
        let mut registry = self
            .registry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = registry.lru.get_mut(&fp);
        if let Some(hit) = bucket.as_ref().and_then(|entries| {
            entries
                .iter()
                .find(|p| p.content.matches(content.kind(), content.as_bytes()))
        }) {
            return Arc::clone(hit);
        }
        let prepared = Arc::new(Prepared {
            handle,
            content,
            instance: Arc::new(instance),
            key: fingerprints.combined(),
            fingerprints,
            engine: Mutex::new(None),
        });
        if let Some(entries) = bucket {
            entries.push(Arc::clone(&prepared));
            return prepared;
        }
        if let Some((_, bucket)) = registry.lru.insert(fp, vec![Arc::clone(&prepared)]) {
            registry.evicted += bucket.len() as u64;
        }
        prepared
    }

    /// Warms the cache with the instance's per-schema products, so later
    /// typechecks of the prepared instance hit on everything. The instance
    /// itself is stored as parsed: `typecheck_cached` fingerprints the
    /// *source* form, so swapping in compiled schemas here would make
    /// every later lookup miss (and double-cache each schema).
    fn prepare(&self, instance: Instance) -> Instance {
        warm_instance(&self.cache, &instance);
        instance
    }
}

/// Content hash of registered content (the registry bucket key; text and
/// binary registrations live in disjoint key spaces).
fn fingerprint_content(kind: ContentKind, bytes: &[u8]) -> u64 {
    match kind {
        ContentKind::Text => {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.write_u8(0xA5);
            h.finish()
        }
        ContentKind::Binary => fingerprint_bytes(bytes, 0xB1),
    }
}

/// Content hash of a source text (the registry bucket key).
pub fn fingerprint_source(source: &str) -> u64 {
    fingerprint_content(ContentKind::Text, source.as_bytes())
}

/// A salted content hash over raw bytes.
fn fingerprint_bytes(bytes: &[u8], salt: u8) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(salt);
    h.write(bytes);
    h.write_u8(salt);
    h.finish()
}

/// A second, differently-salted content hash (the second handle half).
fn fingerprint_source_salted(source: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(0x5A);
    h.write(source.as_bytes());
    h.write_u8(0x5A);
    h.finish()
}

/// The handle a source registers under: `i` + two independently-salted
/// 64-bit content hashes. Purely content-derived — never influenced by
/// registration order or other connections — so register responses stay a
/// pure function of the source even when 64-bit fingerprints collide
/// (distinct sources would have to collide in *both* hashes to share a
/// handle).
pub fn handle_for_source(source: &str) -> String {
    format!(
        "i{:016x}{:016x}",
        fingerprint_source(source),
        fingerprint_source_salted(source)
    )
}

/// Applies a structured [`Edit`] to an instance, producing the successor
/// version. Pure instance surgery — no registration, no typechecking; the
/// caller prints the result canonically and registers the printed source,
/// so the successor's handle is exactly what a from-scratch registration
/// of that source would get.
pub fn apply_edit(instance: &Instance, edit: &Edit) -> Result<Instance, String> {
    let mut alphabet = instance.alphabet.clone();
    match edit {
        Edit::SetRule { state, symbol, rhs } => {
            let transducer = instance
                .transducer
                .with_rule(state, symbol, rhs, &mut alphabet)
                .map_err(|e| e.to_string())?;
            Ok(Instance {
                alphabet,
                input: instance.input.clone(),
                output: instance.output.clone(),
                transducer,
            })
        }
        Edit::RemoveRule { state, symbol } => {
            let sym = alphabet
                .lookup(symbol)
                .ok_or_else(|| format!("unknown symbol `{symbol}`"))?;
            let transducer = instance
                .transducer
                .without_rule(state, sym)
                .map_err(|e| e.to_string())?;
            Ok(Instance {
                alphabet,
                input: instance.input.clone(),
                output: instance.output.clone(),
                transducer,
            })
        }
        Edit::SetSchemaRule {
            output,
            symbol,
            rhs,
        } => {
            let side = if *output {
                &instance.output
            } else {
                &instance.input
            };
            let Schema::Dtd(dtd) = side else {
                return Err("schema edits require a DTD schema".into());
            };
            let sym = alphabet.intern(symbol);
            let re = Regex::parse(rhs, &mut alphabet).map_err(|e| format!("bad rule rhs: {e}"))?;
            let mut dtd = dtd.clone();
            dtd.set_rule(sym, StringLang::Regex(re));
            dtd.grow_alphabet(alphabet.len());
            let (input, output) = if *output {
                (instance.input.clone(), Schema::Dtd(dtd))
            } else {
                (Schema::Dtd(dtd), instance.output.clone())
            };
            Ok(Instance {
                alphabet,
                input,
                output,
                transducer: instance.transducer.clone(),
            })
        }
    }
}

/// The handle a binary frame registers under: like [`handle_for_source`]
/// but prefixed `b` and salted over the frame bytes, so text and binary
/// registrations can never alias.
pub fn handle_for_binary(bytes: &[u8]) -> String {
    format!(
        "b{:016x}{:016x}",
        fingerprint_bytes(bytes, 0xB1),
        fingerprint_bytes(bytes, 0x1B)
    )
}
