//! The compiled-schema cache.
//!
//! Engine setup on small instances is dominated by regex→DFA compilation of
//! DTD rules (Glushkov + subset construction per rule, per typecheck call).
//! Batch workloads repeat schemas across thousands of instances, so the
//! service layer compiles each schema once and shares the result:
//!
//! * **schema level** — a DTD is fingerprinted structurally; a hit returns
//!   the previously compiled `DTD(DFA)` (an `Arc` bump);
//! * **rule level** — on a schema miss, each rule is looked up by its own
//!   fingerprint, so two schemas sharing a rule share one compiled
//!   [`Dfa`]. Rules are stored as [`StringLang::Dfa`]`(Arc<Dfa>)`, which the
//!   Lemma 14 engine adopts without cloning (`to_shared_dfa` is an `Arc`
//!   bump on already-compiled rules);
//! * **tree-automata level** — NTA output schemas are fingerprinted the
//!   same way and the Theorem 20 pipeline's `B_out` product (the
//!   `#`-eliminated complement, quadratic to build) is cached per
//!   `(schema, joint alphabet)` key, `DTAc` validation verdict included.
//!
//! Keys are 64-bit Fx fingerprints of the full structure (content hashes —
//! all rule tables, finals, AST shapes — not names), so equal content hits
//! regardless of which parse produced it. The cache is shared across the
//! batch driver's workers behind a mutex; compilation runs outside the
//! lock, so a racing miss can compile twice but never corrupts the cache.
//!
//! On top of the compiled products sits the **typecheck result memo**
//! ([`SchemaCache::memo_lookup`]): whole verdicts keyed by
//! [`fingerprint_instance`]. Instances registered with a server carry that
//! key from registration, so a memo probe for them hashes nothing; and
//! since a registered instance is one shared `Arc`, its hits verify by
//! pointer identity first. Every other hit — an inline source, a `.xts`
//! item, an equal instance parsed twice — is verified structurally
//! ([`instance_eq`]), so a 64-bit collision is a miss, never a wrong
//! verdict.

use crate::artifact::{self, Artifact, ArtifactKind};
use crate::batch::ItemStatus;
use crate::lru::Lru;
use std::sync::{Arc, Mutex};
use typecheck_core::{delrelab, Instance, Outcome, Schema, TypecheckError};
use xmlta_automata::{Dfa, Nfa, Regex};
use xmlta_base::fxhash::FxHasher;
use xmlta_base::FxHashMap;
use xmlta_schema::{Dtd, Nta, StringLang};
use xmlta_transducer::{translate, Rhs, RhsNode, Selector, Transducer};
use xmlta_xpath::{Axis, Expr, Pattern};

use std::hash::Hasher;

/// Default capacity of the typecheck result memo (distinct instances).
pub const DEFAULT_MEMO_CAPACITY: usize = 8192;

/// Hit/miss counters, readable at any time via [`SchemaCache::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Whole-schema fingerprint hits.
    pub schema_hits: u64,
    /// Whole-schema misses (schema compiled this call).
    pub schema_misses: u64,
    /// Per-rule hits within schema misses.
    pub rule_hits: u64,
    /// Per-rule misses (rule compiled this call).
    pub rule_misses: u64,
    /// Theorem 20 `B_out` product hits (NTA output schemas).
    pub bout_hits: u64,
    /// Theorem 20 `B_out` product misses (product built this call).
    pub bout_misses: u64,
    /// Typecheck result memo hits (verdict served without the engines).
    pub memo_hits: u64,
    /// Typecheck result memo misses.
    pub memo_misses: u64,
    /// Memo entries evicted by the LRU bound.
    pub memo_evictions: u64,
    /// Persistent-store loads adopted after verification (a cold compile
    /// skipped). 0 when no store is mounted.
    pub store_hits: u64,
    /// Persistent-store lookups that found no entry.
    pub store_misses: u64,
    /// Artifacts newly written to the persistent store (an entry already
    /// present — e.g. written by a concurrent daemon — does not count).
    pub store_writes: u64,
    /// Store entries present but rejected: checksum/decode failure or a
    /// source that did not verify against the query. Never fatal — each
    /// one silently fell back to recompilation.
    pub store_corrupt: u64,
}

/// A persistent artifact backend mounted under the cache (the on-disk
/// store in `crates/store`). Implementations are plain byte stores: the
/// cache owns encoding, decoding, verification, and every counter;
/// `load`/`save` must never panic and should swallow I/O errors — a
/// store is an optimization, never an error source.
pub trait ArtifactBackend: Send + Sync {
    /// The bytes stored under `(kind, key, sigma)`, if any.
    fn load(&self, kind: ArtifactKind, key: u64, sigma: usize) -> Option<Vec<u8>>;

    /// Persists `bytes` under `(kind, key, sigma)`. Returns `true` only
    /// when a new entry was written; an entry that already exists (e.g.
    /// written by a concurrent daemon sharing the store) or a failed
    /// write returns `false`.
    fn save(&self, kind: ArtifactKind, key: u64, sigma: usize, bytes: &[u8]) -> bool;
}

/// A cached Theorem 20 product — or the cached `DTAc` validation failure,
/// so invalid output automata are rejected without re-running the
/// determinism/completeness checks.
type BoutEntry = Result<Arc<Nta>, TypecheckError>;

/// A cache entry keeps the *source* object alongside the compiled one:
/// lookups verify structural equality of the source on every fingerprint
/// hit, so a 64-bit hash collision degrades to an uncached compile instead
/// of silently serving another schema's automata.
struct Inner {
    schemas: FxHashMap<u64, (Dtd, Arc<Dtd>)>,
    rules: FxHashMap<(u64, usize), (StringLang, Arc<Dfa>)>,
    /// Theorem 20 pipeline products per output NTA, keyed by
    /// `(fingerprint, joint alphabet size)`.
    bouts: FxHashMap<(u64, usize), (Nta, BoutEntry)>,
    /// The typecheck result memo: whole-instance fingerprint → the
    /// instance (hit verification, retained by `Arc` — never deep-cloned)
    /// and its rendered verdict. Bounded LRU; see
    /// [`SchemaCache::memo_lookup`].
    memo: Lru<u64, (Arc<Instance>, ItemStatus)>,
    stats: CacheStats,
}

/// Shared handles into the process-wide metrics registry mirroring the
/// memo and store counters (the per-cache [`CacheStats`] snapshot stays
/// authoritative for one cache; the registry aggregates across every
/// cache in the process, which is what `stats v2` and offline tooling
/// read). Handles are resolved once per cache so bumps are lock-free.
struct MirrorCounters {
    memo_hits: Arc<xmlta_obs::Counter>,
    memo_misses: Arc<xmlta_obs::Counter>,
    memo_evictions: Arc<xmlta_obs::Counter>,
    store_hits: Arc<xmlta_obs::Counter>,
    store_misses: Arc<xmlta_obs::Counter>,
    store_writes: Arc<xmlta_obs::Counter>,
    store_corrupt: Arc<xmlta_obs::Counter>,
}

impl MirrorCounters {
    fn new() -> MirrorCounters {
        MirrorCounters {
            memo_hits: xmlta_obs::counter("memo.hits"),
            memo_misses: xmlta_obs::counter("memo.misses"),
            memo_evictions: xmlta_obs::counter("memo.evictions"),
            store_hits: xmlta_obs::counter("store.hits"),
            store_misses: xmlta_obs::counter("store.misses"),
            store_writes: xmlta_obs::counter("store.writes"),
            store_corrupt: xmlta_obs::counter("store.corrupt"),
        }
    }
}

/// A thread-safe compiled-schema cache. See the module docs.
pub struct SchemaCache {
    inner: Mutex<Inner>,
    /// Optional persistent artifact store: checked read-through on
    /// compile misses, written behind fresh compiles. All store I/O runs
    /// outside the cache mutex.
    store: Option<Arc<dyn ArtifactBackend>>,
    /// Process-wide mirrors of the memo/store counters.
    mirror: MirrorCounters,
}

impl Default for SchemaCache {
    fn default() -> SchemaCache {
        SchemaCache::with_memo_capacity(DEFAULT_MEMO_CAPACITY)
    }
}

impl SchemaCache {
    /// Creates an empty cache with the default memo capacity.
    pub fn new() -> SchemaCache {
        SchemaCache::default()
    }

    /// Creates an empty cache whose result memo holds at most `capacity`
    /// instances (0 disables the memo; schema-level caching is unaffected).
    pub fn with_memo_capacity(capacity: usize) -> SchemaCache {
        SchemaCache {
            inner: Mutex::new(Inner {
                schemas: FxHashMap::default(),
                rules: FxHashMap::default(),
                bouts: FxHashMap::default(),
                memo: Lru::new(capacity),
                stats: CacheStats::default(),
            }),
            store: None,
            mirror: MirrorCounters::new(),
        }
    }

    /// Mounts a persistent artifact store under the cache. Compile
    /// misses become read-throughs (verified adopt on hit, recompile on
    /// anything else) and fresh compiles are written behind. Collided
    /// fingerprint slots never touch the store.
    pub fn set_store(&mut self, store: Arc<dyn ArtifactBackend>) {
        self.store = Some(store);
    }

    /// Whether a persistent store is mounted.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Bumps stats under the lock (used by store paths, which do their
    /// I/O and decoding outside it).
    fn bump(&self, f: impl FnOnce(&mut CacheStats)) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut inner.stats);
    }

    /// Read-through: fetches `(kind, key, sigma)` from the store, decodes
    /// it, and hands the artifact to `adopt` for verification against the
    /// query (exactly like an in-memory hit verifies its source). Returns
    /// the adopted product or `None` (absent → `store_misses`; present
    /// but undecodable/unverifiable → `store_corrupt`, fall back to
    /// recompilation).
    fn store_load<T>(
        &self,
        kind: ArtifactKind,
        key: u64,
        sigma: usize,
        adopt: impl FnOnce(Artifact) -> Option<T>,
    ) -> Option<T> {
        let store = self.store.as_ref()?;
        let _span = xmlta_obs::span("store");
        let Some(bytes) = store.load(kind, key, sigma) else {
            self.bump(|s| s.store_misses += 1);
            self.mirror.store_misses.bump();
            return None;
        };
        match artifact::decode(&bytes).ok().and_then(adopt) {
            Some(product) => {
                self.bump(|s| s.store_hits += 1);
                self.mirror.store_hits.bump();
                Some(product)
            }
            None => {
                self.bump(|s| s.store_corrupt += 1);
                self.mirror.store_corrupt.bump();
                None
            }
        }
    }

    /// Write-behind: persists an encoded artifact after a fresh compile.
    fn store_save(&self, kind: ArtifactKind, key: u64, sigma: usize, bytes: &[u8]) {
        if let Some(store) = &self.store {
            let _span = xmlta_obs::span("store");
            if store.save(kind, key, sigma, bytes) {
                self.bump(|s| s.store_writes += 1);
                self.mirror.store_writes.bump();
            }
        }
    }

    /// Looks up the memoized verdict for an instance with content
    /// fingerprint `fp` ([`fingerprint_instance`]). A hit returns a clone
    /// of the stored verdict — byte-identical to what recomputation would
    /// render, because the stored verdict *was* computed from an instance
    /// verified equal: the very same allocation (pointer identity, the
    /// registered-handle case), or else structurally equal. A colliding
    /// fingerprint counts as a miss, never as a wrong answer.
    pub fn memo_lookup(&self, fp: u64, instance: &Instance) -> Option<ItemStatus> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner.memo.get(&fp) {
            Some((source, status)) if same_instance(source, instance) => {
                let status = status.clone();
                inner.stats.memo_hits += 1;
                self.mirror.memo_hits.bump();
                Some(status)
            }
            _ => {
                inner.stats.memo_misses += 1;
                self.mirror.memo_misses.bump();
                None
            }
        }
    }

    /// Stores the verdict for an instance with fingerprint `fp`. A slot
    /// already owned by a *different* instance (64-bit collision) is left
    /// alone — correctness never depends on fingerprints being unique.
    pub fn memo_insert(&self, fp: u64, instance: &Arc<Instance>, status: &ItemStatus) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((source, _)) = inner.memo.get(&fp) {
            if !same_instance(source, instance) {
                return;
            }
        }
        if inner
            .memo
            .insert(fp, (Arc::clone(instance), status.clone()))
            .is_some()
        {
            inner.stats.memo_evictions += 1;
            self.mirror.memo_evictions.bump();
        }
    }

    /// `(live entries, capacity)` of the result memo.
    pub fn memo_len(&self) -> (usize, usize) {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (inner.memo.len(), inner.memo.capacity())
    }

    /// Compiles `dtd` to `DTD(DFA)` form with `Arc`-shared rules, reusing
    /// previously compiled schemas and rules.
    pub fn compile_dtd(&self, dtd: &Dtd) -> Arc<Dtd> {
        let fp = fingerprint_dtd(dtd);
        let collided;
        {
            let mut inner = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match inner.schemas.get(&fp) {
                Some((source, hit)) if dtd_eq(source, dtd) => {
                    let hit = Arc::clone(hit);
                    inner.stats.schema_hits += 1;
                    return hit;
                }
                entry => collided = entry.is_some(),
            }
            inner.stats.schema_misses += 1;
        }
        let _span = xmlta_obs::span("compile");
        let sigma = dtd.alphabet_size();
        if !collided {
            if let Some(compiled) =
                self.store_load(ArtifactKind::Schema, fp, sigma, |artifact| match artifact {
                    Artifact::Schema { source, compiled } if dtd_eq(&source, dtd) => {
                        Some(Arc::new(compiled))
                    }
                    _ => None,
                })
            {
                return self.adopt_schema(fp, dtd, compiled);
            }
        }
        let mut compiled = Dtd::new(sigma, dtd.start());
        let mut rules: Vec<_> = dtd.rules().collect();
        rules.sort_by_key(|(s, _)| *s);
        for (sym, lang) in rules {
            compiled.set_rule(sym, StringLang::Dfa(self.compile_rule(lang, sigma)));
        }
        let compiled = Arc::new(compiled);
        if collided {
            // A different schema owns this fingerprint slot: serve the
            // fresh compile uncached rather than evict (collisions are
            // ~2^-64 per pair; correctness must not depend on that).
            return compiled;
        }
        if self.store.is_some() {
            if let Ok(bytes) = artifact::encode_schema(dtd, &compiled) {
                self.store_save(ArtifactKind::Schema, fp, sigma, &bytes);
            }
        }
        self.adopt_schema(fp, dtd, compiled)
    }

    /// Publishes a compiled schema (freshly built or adopted from the
    /// store) into the in-memory map, re-verifying the slot's occupant: a
    /// racing compile of a *colliding* schema may have claimed the slot
    /// in the window since the miss.
    fn adopt_schema(&self, fp: u64, dtd: &Dtd, compiled: Arc<Dtd>) -> Arc<Dtd> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner.schemas.entry(fp) {
            std::collections::hash_map::Entry::Occupied(e) if !dtd_eq(&e.get().0, dtd) => compiled,
            entry => Arc::clone(&entry.or_insert((dtd.clone(), compiled)).1),
        }
    }

    /// Compiles one rule language to a shared DFA, reusing equal rules.
    pub fn compile_rule(&self, lang: &StringLang, sigma: usize) -> Arc<Dfa> {
        // Already-compiled rules are adopted as-is — no cache entry needed,
        // `to_shared_dfa` is an `Arc` bump.
        if let StringLang::Dfa(_) = lang {
            return lang.to_shared_dfa(sigma);
        }
        let key = (fingerprint_lang(lang), sigma);
        let collided;
        {
            let mut inner = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match inner.rules.get(&key) {
                Some((source, hit)) if lang_eq(source, lang) => {
                    let hit = Arc::clone(hit);
                    inner.stats.rule_hits += 1;
                    return hit;
                }
                entry => collided = entry.is_some(),
            }
            inner.stats.rule_misses += 1;
        }
        let _span = xmlta_obs::span("compile");
        if !collided {
            if let Some(dfa) =
                self.store_load(
                    ArtifactKind::Rule,
                    key.0,
                    sigma,
                    |artifact| match artifact {
                        Artifact::Rule {
                            sigma: s,
                            source,
                            compiled,
                        } if s == sigma && lang_eq(&source, lang) => Some(Arc::new(compiled)),
                        _ => None,
                    },
                )
            {
                return self.adopt_rule(key, lang, dfa);
            }
        }
        let dfa = lang.to_shared_dfa(sigma);
        if collided {
            return dfa;
        }
        if self.store.is_some() {
            let bytes = artifact::encode_rule(sigma, lang, &dfa);
            self.store_save(ArtifactKind::Rule, key.0, sigma, &bytes);
        }
        self.adopt_rule(key, lang, dfa)
    }

    /// Publishes a compiled rule, re-verifying the slot (see
    /// [`SchemaCache::adopt_schema`]).
    fn adopt_rule(&self, key: (u64, usize), lang: &StringLang, dfa: Arc<Dfa>) -> Arc<Dfa> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner.rules.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) if !lang_eq(&e.get().0, lang) => dfa,
            entry => Arc::clone(&entry.or_insert((lang.clone(), dfa)).1),
        }
    }

    /// The Theorem 20 `B_out` product for output automaton `aout` over the
    /// joint alphabet `sigma`, validated ([`delrelab::require_dtac`]) and
    /// built ([`delrelab::bout_product`]) at most once per distinct schema.
    ///
    /// The product depends only on `(aout, sigma)` — not on the input
    /// schema or the transducer — so repeated-schema NTA workloads amortize
    /// the quadratic jump-pair construction the same way DTD workloads
    /// amortize rule compilation.
    pub fn delrelab_bout(&self, aout: &Nta, sigma: usize) -> Result<Arc<Nta>, TypecheckError> {
        let key = (fingerprint_nta(aout), sigma);
        let collided;
        {
            let mut inner = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match inner.bouts.get(&key) {
                Some((source, hit)) if nta_eq(source, aout) => {
                    let hit = hit.clone();
                    inner.stats.bout_hits += 1;
                    return hit;
                }
                entry => collided = entry.is_some(),
            }
            inner.stats.bout_misses += 1;
        }
        let _span = xmlta_obs::span("delrelab");
        if !collided {
            if let Some(product) =
                self.store_load(
                    ArtifactKind::Bout,
                    key.0,
                    sigma,
                    |artifact| match artifact {
                        Artifact::Bout {
                            sigma: s,
                            source,
                            product,
                        } if s == sigma && nta_eq(&source, aout) => Some(Arc::new(product)),
                        _ => None,
                    },
                )
            {
                return self.adopt_bout(key, aout, Ok(product));
            }
        }
        // Validation and construction run outside the lock.
        let built =
            delrelab::require_dtac(aout).map(|()| Arc::new(delrelab::bout_product(aout, sigma)));
        if collided {
            return built;
        }
        // Only `Ok` products are persisted: a `DTAc` validation *failure*
        // is a verdict, not a compiled artifact, and stays memory-only.
        if self.store.is_some() {
            if let Ok(product) = &built {
                let bytes = artifact::encode_bout(sigma, aout, product);
                self.store_save(ArtifactKind::Bout, key.0, sigma, &bytes);
            }
        }
        self.adopt_bout(key, aout, built)
    }

    /// Publishes a `B_out` entry, re-verifying the slot (see
    /// [`SchemaCache::adopt_schema`]).
    fn adopt_bout(&self, key: (u64, usize), aout: &Nta, built: BoutEntry) -> BoutEntry {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner.bouts.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) if !nta_eq(&e.get().0, aout) => built,
            entry => entry.or_insert((aout.clone(), built)).1.clone(),
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .stats
    }

    /// Number of distinct schemas and rules currently cached.
    pub fn len(&self) -> (usize, usize) {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (inner.schemas.len(), inner.rules.len())
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }
}

/// Warms `cache` with the instance's per-schema products — compiled DTD
/// rule DFAs, or the Theorem 20 `B_out` product for NTA/NTA instances —
/// so later typechecks hit on every product. With a persistent store
/// mounted this is also the prewarm primitive: every product it compiles
/// is written behind (`xmlta store prewarm`, server-side registration).
pub fn warm_instance(cache: &SchemaCache, instance: &Instance) {
    if let (Schema::Nta(ain), Schema::Nta(aout)) = (&instance.input, &instance.output) {
        // Build (or find) the Theorem 20 B_out product now; the verdict —
        // including `Unsupported` for non-DTAc outputs — is cached and
        // surfaces at typecheck time.
        let sigma = delrelab::joint_sigma(ain, aout, instance.alphabet_size());
        let _ = cache.delrelab_bout(aout, sigma);
    } else {
        for schema in [&instance.input, &instance.output] {
            if let Schema::Dtd(d) = schema {
                let _ = cache.compile_dtd(d);
            }
        }
    }
}

/// Typechecks `instance` with all per-schema products routed through the
/// cache: DTD schemas compile their rules to shared DFAs, and NTA instances
/// reuse the Theorem 20 `B_out` product per output schema. The outcome is
/// identical to [`typecheck_core::typecheck`] — the cache only changes
/// where the work happens.
pub fn typecheck_cached(
    cache: &SchemaCache,
    instance: &Instance,
) -> Result<Outcome, TypecheckError> {
    if let (Schema::Nta(ain), Schema::Nta(aout)) = (&instance.input, &instance.output) {
        // Mirror the dispatch of `typecheck_core::typecheck` for the
        // Theorem 20 pipeline, with step 3 served from the cache.
        let transducer = if instance.transducer.uses_selectors() {
            translate::expand_selectors_with_alphabet(
                &instance.transducer,
                instance.alphabet_size(),
            )
            .map_err(|e| TypecheckError::Selector(e.to_string()))?
        } else {
            instance.transducer.clone()
        };
        // Cheap transducer-class validation first, matching the direct
        // engine's error precedence and skipping the product entirely on
        // unsupported transducers.
        delrelab::require_delrelab(&transducer)?;
        let sigma = delrelab::joint_sigma(ain, aout, instance.alphabet_size());
        let bout = cache.delrelab_bout(aout, sigma)?;
        return delrelab::typecheck_delrelab_with_bout(ain, &bout, &transducer, sigma);
    }
    let compile = |schema: &Schema| -> Schema {
        match schema {
            Schema::Dtd(d) => Schema::Dtd((*cache.compile_dtd(d)).clone()),
            Schema::Nta(n) => Schema::Nta(n.clone()),
        }
    };
    let prepared = Instance {
        alphabet: instance.alphabet.clone(),
        input: compile(&instance.input),
        output: compile(&instance.output),
        transducer: instance.transducer.clone(),
    };
    typecheck_core::typecheck(&prepared)
}

fn finish(h: FxHasher) -> u64 {
    h.finish()
}

/// Structural equality of two DTDs (the cache-hit verification; see
/// [`Inner`]).
fn dtd_eq(a: &Dtd, b: &Dtd) -> bool {
    if a.alphabet_size() != b.alphabet_size() || a.start() != b.start() {
        return false;
    }
    let mut ra: Vec<_> = a.rules().collect();
    let mut rb: Vec<_> = b.rules().collect();
    ra.sort_by_key(|(s, _)| *s);
    rb.sort_by_key(|(s, _)| *s);
    ra.len() == rb.len()
        && ra
            .iter()
            .zip(&rb)
            .all(|((sa, la), (sb, lb))| sa == sb && lang_eq(la, lb))
}

/// Structural equality of two rule languages.
fn lang_eq(a: &StringLang, b: &StringLang) -> bool {
    match (a, b) {
        (StringLang::Dfa(x), StringLang::Dfa(y)) => dfa_eq(x, y),
        (StringLang::Nfa(x), StringLang::Nfa(y)) => nfa_eq(x, y),
        (StringLang::Regex(x), StringLang::Regex(y)) => x == y,
        (StringLang::RePlus(x), StringLang::RePlus(y)) => x == y,
        _ => false,
    }
}

/// Structural equality of two NFAs.
fn nfa_eq(x: &Nfa, y: &Nfa) -> bool {
    x.num_states() == y.num_states()
        && x.alphabet_size() == y.alphabet_size()
        && x.initial_states() == y.initial_states()
        && (0..x.num_states() as u32).all(|q| {
            x.is_final_state(q) == y.is_final_state(q)
                && x.transitions_from(q) == y.transitions_from(q)
        })
}

/// Structural equality of two NTAs (transition entries compared in
/// canonical `(state, symbol)` order).
fn nta_eq(a: &Nta, b: &Nta) -> bool {
    if a.alphabet_size() != b.alphabet_size() || a.num_states() != b.num_states() {
        return false;
    }
    if !(0..a.num_states() as u32).all(|q| a.is_final_state(q) == b.is_final_state(q)) {
        return false;
    }
    let ta = a.sorted_transitions();
    let tb = b.sorted_transitions();
    ta.len() == tb.len()
        && ta
            .iter()
            .zip(&tb)
            .all(|((qa, sa, na), (qb, sb, nb))| qa == qb && sa == sb && nfa_eq(na, nb))
}

fn dfa_eq(a: &Dfa, b: &Dfa) -> bool {
    a.num_states() == b.num_states()
        && a.alphabet_size() == b.alphabet_size()
        && a.initial_state() == b.initial_state()
        && (0..a.num_states() as u32).all(|q| {
            a.is_final_state(q) == b.is_final_state(q)
                && (0..a.alphabet_size() as u32).all(|l| a.step(q, l) == b.step(q, l))
        })
}

/// Structural fingerprint of a DTD: alphabet size, start symbol, and every
/// rule in symbol order.
pub fn fingerprint_dtd(dtd: &Dtd) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(0xD7D0);
    h.write_u64(dtd.alphabet_size() as u64);
    h.write_u32(dtd.start().0);
    let mut rules: Vec<_> = dtd.rules().collect();
    rules.sort_by_key(|(s, _)| *s);
    for (sym, lang) in rules {
        h.write_u32(sym.0);
        h.write_u64(fingerprint_lang(lang));
    }
    finish(h)
}

/// Structural fingerprint of a rule language.
pub fn fingerprint_lang(lang: &StringLang) -> u64 {
    let mut h = FxHasher::default();
    match lang {
        StringLang::Dfa(d) => {
            h.write_u8(0);
            hash_dfa(&mut h, d);
        }
        StringLang::Nfa(n) => {
            h.write_u8(1);
            hash_nfa(&mut h, n);
        }
        StringLang::Regex(re) => {
            h.write_u8(2);
            hash_regex(&mut h, re);
        }
        StringLang::RePlus(re) => {
            h.write_u8(3);
            for f in re.factors() {
                h.write_u32(f.sym);
                h.write_u8(f.plus as u8);
            }
        }
    }
    finish(h)
}

fn hash_nfa(h: &mut FxHasher, n: &Nfa) {
    h.write_u64(n.num_states() as u64);
    for &q in n.initial_states() {
        h.write_u32(q);
    }
    h.write_u8(0xFE);
    for q in n.final_states() {
        h.write_u32(q);
    }
    h.write_u8(0xFD);
    for (q, l, r) in n.transitions() {
        h.write_u32(q);
        h.write_u32(l);
        h.write_u32(r);
    }
}

/// Structural fingerprint of an NTA: alphabet size, state count, finals,
/// and every transition entry in canonical `(state, symbol)` order.
pub fn fingerprint_nta(nta: &Nta) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(0x27A0);
    h.write_u64(nta.alphabet_size() as u64);
    h.write_u64(nta.num_states() as u64);
    for q in nta.final_states() {
        h.write_u32(q);
    }
    h.write_u8(0xFC);
    for (q, sym, nfa) in nta.sorted_transitions() {
        h.write_u32(q);
        h.write_u32(sym.0);
        hash_nfa(&mut h, nfa);
    }
    finish(h)
}

/// Structural fingerprint of a whole typecheck instance: alphabet names
/// (display matters — counterexamples render through them), both schemas,
/// and the transducer. This is the result-memo key.
///
/// Since the incremental-update work this is *derived from the
/// per-component fingerprints* ([`ComponentFingerprints::combined`]): any
/// edit to any component — a single transducer rule included — changes the
/// combined key, so the memo can never serve a pre-edit verdict for a
/// post-edit instance, while the unchanged components keep their own
/// fingerprints (and therefore their cached rule DFAs, compiled schemas,
/// and `B_out` products).
pub fn fingerprint_instance(instance: &Instance) -> u64 {
    ComponentFingerprints::of(instance).combined()
}

/// Fingerprint of an alphabet section (names in index order).
pub fn fingerprint_alphabet(a: &xmlta_base::Alphabet) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(0xA1FA);
    h.write_u64(a.len() as u64);
    for s in a.symbols() {
        h.write(a.name(s).as_bytes());
        h.write_u8(0xFF);
    }
    finish(h)
}

/// Fingerprint of a schema section. DTD and NTA salts differ, so the
/// variants cannot collide.
pub fn fingerprint_schema(schema: &Schema) -> u64 {
    match schema {
        Schema::Dtd(d) => fingerprint_dtd(d),
        Schema::Nta(n) => fingerprint_nta(n),
    }
}

/// Fingerprint of the transducer *header*: state names, initial state,
/// alphabet size, and the selector table — everything about the transducer
/// except its rules, which are fingerprinted one by one
/// ([`fingerprint_rule`]).
pub fn fingerprint_transducer_header(t: &Transducer) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(0x7EAD);
    h.write_u64(t.num_states() as u64);
    for name in t.state_names() {
        h.write(name.as_bytes());
        h.write_u8(0xFF);
    }
    h.write_u32(t.initial_state());
    h.write_u64(t.alphabet_size() as u64);
    for sel in t.selectors() {
        match sel {
            Selector::XPath(p) => {
                h.write_u8(0);
                hash_pattern(&mut h, p);
            }
            Selector::Dfa(d) => {
                h.write_u8(1);
                hash_dfa(&mut h, d);
            }
        }
    }
    finish(h)
}

/// Fingerprint of one transducer rule `rhs(q, a)`.
pub fn fingerprint_rule(q: u32, a: xmlta_base::Symbol, rhs: &Rhs) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(0x12E1);
    h.write_u32(q);
    h.write_u32(a.0);
    h.write_u64(rhs.nodes.len() as u64);
    rhs.nodes.iter().for_each(|n| hash_rhs_node(&mut h, n));
    finish(h)
}

/// The per-component fingerprints of an instance: alphabet, each schema
/// section, the transducer header, and every transducer rule separately.
/// Two versions of an instance share exactly the components whose
/// fingerprints coincide — the unit of reuse the `update` op reports via
/// its `components_reused` counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentFingerprints {
    pub alphabet: u64,
    pub input: u64,
    pub output: u64,
    pub transducer_header: u64,
    /// Per-rule fingerprints in canonical `(state, symbol)` order.
    pub rules: Vec<((u32, xmlta_base::Symbol), u64)>,
}

impl ComponentFingerprints {
    /// Computes every component fingerprint of `instance`.
    pub fn of(instance: &Instance) -> ComponentFingerprints {
        let mut rules: Vec<((u32, xmlta_base::Symbol), u64)> = instance
            .transducer
            .rules()
            .map(|(q, a, rhs)| ((q, a), fingerprint_rule(q, a, rhs)))
            .collect();
        rules.sort_by_key(|&(k, _)| k);
        ComponentFingerprints {
            alphabet: fingerprint_alphabet(&instance.alphabet),
            input: fingerprint_schema(&instance.input),
            output: fingerprint_schema(&instance.output),
            transducer_header: fingerprint_transducer_header(&instance.transducer),
            rules,
        }
    }

    /// The whole-instance fingerprint (the result-memo key), combined from
    /// the components.
    pub fn combined(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(0x1257);
        h.write_u64(self.alphabet);
        h.write_u64(self.input);
        h.write_u64(self.output);
        h.write_u64(self.transducer_header);
        for &((q, a), fp) in &self.rules {
            h.write_u32(q);
            h.write_u32(a.0);
            h.write_u64(fp);
        }
        finish(h)
    }

    /// How many of `self`'s components carry a fingerprint identical to a
    /// component of `prev` — i.e. survive an edit from `prev` to `self`
    /// untouched.
    pub fn shared_with(&self, prev: &ComponentFingerprints) -> usize {
        let mut n = 0;
        n += usize::from(self.alphabet == prev.alphabet);
        n += usize::from(self.input == prev.input);
        n += usize::from(self.output == prev.output);
        n += usize::from(self.transducer_header == prev.transducer_header);
        // Both rule lists are sorted by (state, symbol): one merge pass.
        let (mut i, mut j) = (0, 0);
        while i < self.rules.len() && j < prev.rules.len() {
            match self.rules[i].0.cmp(&prev.rules[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += usize::from(self.rules[i].1 == prev.rules[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

fn hash_rhs_node(h: &mut FxHasher, node: &RhsNode) {
    match node {
        RhsNode::Elem(sym, children) => {
            h.write_u8(0);
            h.write_u32(sym.0);
            h.write_u64(children.len() as u64);
            children.iter().for_each(|c| hash_rhs_node(h, c));
        }
        RhsNode::State(q) => {
            h.write_u8(1);
            h.write_u32(*q);
        }
        RhsNode::Select(q, sel) => {
            h.write_u8(2);
            h.write_u32(*q);
            h.write_u32(*sel);
        }
    }
}

fn hash_pattern(h: &mut FxHasher, p: &Pattern) {
    h.write_u8(match p.axis {
        Axis::Child => 0,
        Axis::Descendant => 1,
    });
    hash_expr(h, &p.expr);
}

fn hash_expr(h: &mut FxHasher, e: &Expr) {
    match e {
        Expr::Disj(a, b) => {
            h.write_u8(0);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Child(a, b) => {
            h.write_u8(1);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Desc(a, b) => {
            h.write_u8(2);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Filter(e, p) => {
            h.write_u8(3);
            hash_expr(h, e);
            hash_pattern(h, p);
        }
        Expr::Test(s) => {
            h.write_u8(4);
            h.write_u32(s.0);
        }
        Expr::Wildcard => h.write_u8(5),
    }
}

/// The memo's slot verification: the occupant is the very instance probed
/// (one `Arc`, so no walk is needed), or else structurally equal to it.
fn same_instance(occupant: &Arc<Instance>, instance: &Instance) -> bool {
    std::ptr::eq(&**occupant, instance) || instance_eq(occupant, instance)
}

/// Structural equality of two whole instances (the memo-hit verification):
/// same alphabet names in the same order, same schemas, same transducer.
pub fn instance_eq(a: &Instance, b: &Instance) -> bool {
    alphabet_eq(&a.alphabet, &b.alphabet)
        && schema_eq(&a.input, &b.input)
        && schema_eq(&a.output, &b.output)
        && transducer_eq(&a.transducer, &b.transducer)
}

fn alphabet_eq(a: &xmlta_base::Alphabet, b: &xmlta_base::Alphabet) -> bool {
    a.len() == b.len() && a.symbols().all(|s| a.name(s) == b.name(s))
}

fn schema_eq(a: &Schema, b: &Schema) -> bool {
    match (a, b) {
        (Schema::Dtd(x), Schema::Dtd(y)) => dtd_eq(x, y),
        (Schema::Nta(x), Schema::Nta(y)) => nta_eq(x, y),
        _ => false,
    }
}

fn transducer_eq(a: &Transducer, b: &Transducer) -> bool {
    if a.state_names() != b.state_names()
        || a.initial_state() != b.initial_state()
        || a.alphabet_size() != b.alphabet_size()
        || a.selectors().len() != b.selectors().len()
    {
        return false;
    }
    if !a
        .selectors()
        .iter()
        .zip(b.selectors())
        .all(|(x, y)| selector_eq(x, y))
    {
        return false;
    }
    sorted_rules(a) == sorted_rules(b)
}

/// All transducer rules in canonical `(state, symbol)` order.
fn sorted_rules(t: &Transducer) -> Vec<(u32, xmlta_base::Symbol, &Rhs)> {
    let mut rules: Vec<_> = t.rules().collect();
    rules.sort_by_key(|&(q, s, _)| (q, s));
    rules
}

fn selector_eq(a: &Selector, b: &Selector) -> bool {
    match (a, b) {
        (Selector::XPath(x), Selector::XPath(y)) => x == y,
        (Selector::Dfa(x), Selector::Dfa(y)) => dfa_eq(x, y),
        _ => false,
    }
}

fn hash_dfa(h: &mut FxHasher, d: &Dfa) {
    h.write_u64(d.num_states() as u64);
    h.write_u64(d.alphabet_size() as u64);
    h.write_u32(d.initial_state());
    for q in 0..d.num_states() as u32 {
        h.write_u8(d.is_final_state(q) as u8);
        for l in 0..d.alphabet_size() as u32 {
            match d.step(q, l) {
                Some(r) => h.write_u32(r),
                None => h.write_u32(u32::MAX),
            }
        }
    }
}

fn hash_regex(h: &mut FxHasher, re: &Regex) {
    match re {
        Regex::Empty => h.write_u8(0),
        Regex::Epsilon => h.write_u8(1),
        Regex::Sym(l) => {
            h.write_u8(2);
            h.write_u32(*l);
        }
        Regex::Concat(rs) => {
            h.write_u8(3);
            h.write_u64(rs.len() as u64);
            rs.iter().for_each(|r| hash_regex(h, r));
        }
        Regex::Alt(rs) => {
            h.write_u8(4);
            h.write_u64(rs.len() as u64);
            rs.iter().for_each(|r| hash_regex(h, r));
        }
        Regex::Star(r) => {
            h.write_u8(5);
            hash_regex(h, r);
        }
        Regex::Plus(r) => {
            h.write_u8(6);
            hash_regex(h, r);
        }
        Regex::Opt(r) => {
            h.write_u8(7);
            hash_regex(h, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlta_base::Alphabet;

    fn book_dtd() -> (Alphabet, Dtd) {
        let mut a = Alphabet::new();
        let d = Dtd::parse(
            "book -> title author+ chapter+\nchapter -> title intro",
            &mut a,
        )
        .unwrap();
        (a, d)
    }

    #[test]
    fn schema_level_hits() {
        let cache = SchemaCache::new();
        let (_, d) = book_dtd();
        let c1 = cache.compile_dtd(&d);
        let c2 = cache.compile_dtd(&d);
        assert!(Arc::ptr_eq(&c1, &c2));
        let s = cache.stats();
        assert_eq!((s.schema_hits, s.schema_misses), (1, 1));
        assert!(c1.is_dfa_dtd());
    }

    #[test]
    fn rule_level_sharing_across_schemas() {
        let cache = SchemaCache::new();
        // Pre-intern the union of names: rule sharing requires equal
        // alphabet sizes (the DFA's alphabet is part of the cache key).
        let mut a = Alphabet::from_names(["book", "title", "author", "chapter", "intro", "note"]);
        let d1 = Dtd::parse(
            "book -> title author+ chapter+\nchapter -> title intro",
            &mut a,
        )
        .unwrap();
        // Same `book` rule inside a different schema.
        let d2 = Dtd::parse("book -> title author+ chapter+\nauthor -> note*", &mut a).unwrap();
        let c1 = cache.compile_dtd(&d1);
        let c2 = cache.compile_dtd(&d2);
        let s = cache.stats();
        assert_eq!(s.schema_misses, 2);
        assert_eq!(s.rule_hits, 1, "shared `book` rule compiled once");
        let rule = |d: &Dtd, name: &str| match d.rule(a.sym(name)).unwrap() {
            StringLang::Dfa(arc) => Arc::clone(arc),
            other => panic!("expected compiled rule, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&rule(&c1, "book"), &rule(&c2, "book")));
    }

    #[test]
    fn fingerprints_distinguish_content() {
        let (mut a, d) = book_dtd();
        let d2 = Dtd::parse(
            "book -> title author* chapter+\nchapter -> title intro",
            &mut a,
        )
        .unwrap();
        assert_ne!(fingerprint_dtd(&d), fingerprint_dtd(&d2));
        assert_eq!(fingerprint_dtd(&d), fingerprint_dtd(&d.clone()));
    }

    #[test]
    fn nta_bout_products_are_cached() {
        use typecheck_core::Instance;
        use xmlta_schema::{convert::dtd_to_nta, dta};
        use xmlta_transducer::TransducerBuilder;

        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        let dout = Dtd::parse("s -> y*", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "s(q)")
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let ain = dtd_to_nta(&din);
        let aout = dta::complete(&dtd_to_nta(&dout));
        let instance = Instance::ntas(a, ain, aout, t);

        let cache = SchemaCache::new();
        let one = typecheck_cached(&cache, &instance).expect("engine runs");
        let two = typecheck_cached(&cache, &instance).expect("engine runs");
        let reference = typecheck_core::typecheck(&instance).expect("engine runs");
        assert_eq!(one, two, "cached runs agree with each other");
        assert_eq!(one, reference, "cached run agrees with the direct engine");
        assert!(one.type_checks());
        let s = cache.stats();
        assert_eq!((s.bout_misses, s.bout_hits), (1, 1), "{s:?}");
    }

    #[test]
    fn nta_fingerprints_distinguish_content() {
        use xmlta_schema::convert::dtd_to_nta;
        let mut a = Alphabet::new();
        let d1 = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        let d2 = Dtd::parse("r -> x+\nx -> ", &mut a).unwrap();
        let n1 = dtd_to_nta(&d1);
        let n2 = dtd_to_nta(&d2);
        assert_ne!(fingerprint_nta(&n1), fingerprint_nta(&n2));
        assert_eq!(fingerprint_nta(&n1), fingerprint_nta(&n1.clone()));
        assert!(nta_eq(&n1, &n1.clone()));
        assert!(!nta_eq(&n1, &n2));
    }

    #[test]
    fn invalid_nta_output_rejected_through_cache() {
        use typecheck_core::Instance;
        use xmlta_schema::convert::dtd_to_nta;
        use xmlta_transducer::TransducerBuilder;

        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> ", &mut a).unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "r")
            .build()
            .unwrap();
        // dtd_to_nta without completion: incomplete output automaton.
        let instance = Instance::ntas(a, dtd_to_nta(&din), dtd_to_nta(&dout), t);
        let cache = SchemaCache::new();
        for _ in 0..2 {
            match typecheck_cached(&cache, &instance) {
                Err(TypecheckError::Unsupported(m)) => assert!(m.contains("complete"), "{m}"),
                other => panic!("expected Unsupported, got {other:?}"),
            }
        }
        let s = cache.stats();
        assert_eq!(
            (s.bout_misses, s.bout_hits),
            (1, 1),
            "the validation verdict is cached too: {s:?}"
        );
    }

    #[test]
    fn compiled_schema_preserves_language() {
        let cache = SchemaCache::new();
        let (mut a, d) = book_dtd();
        let c = cache.compile_dtd(&d);
        let t = xmlta_tree::parse_tree("book(title author chapter(title intro))", &mut a).unwrap();
        let bad = xmlta_tree::parse_tree("book(title)", &mut a).unwrap();
        assert_eq!(d.accepts(&t), c.accepts(&t));
        assert_eq!(d.accepts(&bad), c.accepts(&bad));
    }
}
