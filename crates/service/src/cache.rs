//! The compiled-schema cache.
//!
//! Engine setup on small instances is dominated by regex→DFA compilation of
//! DTD rules (Glushkov + subset construction per rule, per typecheck call).
//! Batch workloads repeat schemas across thousands of instances, so the
//! service layer compiles each schema once and shares the result:
//!
//! * **schema level** — a DTD hit returns the previously compiled
//!   `DTD(DFA)` (an `Arc` bump);
//! * **rule level** — on a schema miss, each rule is looked up on its own,
//!   so two schemas sharing a rule share one compiled [`Dfa`]. Rules are
//!   stored as [`StringLang::Dfa`]`(Arc<Dfa>)`, which the Lemma 14 engine
//!   adopts without cloning (`to_shared_dfa` is an `Arc` bump on
//!   already-compiled rules);
//! * **tree-automata level** — the Theorem 20 pipeline's `B_out` product
//!   for an NTA output schema (the `#`-eliminated complement, quadratic to
//!   build) is cached per `(schema, joint alphabet)` key, `DTAc`
//!   validation verdict included.
//!
//! Structural identity is the types' own: "same content" is `==`
//! (`PartialEq`/`Eq` on [`Dtd`], [`Nta`], [`StringLang`], [`Instance`], …)
//! and every key is [`fingerprint`], an Fx hash of the value's `Hash`. The
//! types define both from their fields — hash-map fields in canonical
//! order — so values that are `==` fingerprint equal whichever parse or
//! edit produced them. Keys pair the fingerprint with the alphabet size.
//! The three levels are three tables run by one protocol
//! (`SchemaCache::product`): each hit verifies its source with `==`, a
//! miss builds outside the lock with the mounted [`ArtifactBackend`] read
//! through and written behind, and a collided slot is served uncached.
//!
//! On top of the compiled products sits the **typecheck result memo**
//! ([`SchemaCache::memo_lookup`]): whole verdicts keyed by
//! [`fingerprint_instance`]. Instances registered with a server carry that
//! key from registration, so a memo probe for them hashes nothing; and
//! since a registered instance is one shared `Arc`, its hits verify by
//! pointer identity first. Every other hit — an inline source, a `.xts`
//! item, an equal instance parsed twice — is verified with `==`, so a
//! 64-bit collision is a miss, never a wrong verdict.

use crate::artifact::{self, Artifact, ArtifactKind};
use crate::batch::ItemStatus;
use crate::lru::Lru;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use typecheck_core::{delrelab, Instance, Outcome, Schema, TypecheckError};
use xmlta_automata::Dfa;
use xmlta_base::fxhash::FxHasher;
use xmlta_base::{FxHashMap, Symbol};
use xmlta_schema::{Dtd, Nta, StringLang};
use xmlta_transducer::Rhs;

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

/// One compiled-product table. A slot keyed `(fingerprint, sigma)` keeps
/// the *source* alongside its product: every fingerprint hit verifies the
/// source with `==`, so a 64-bit collision degrades to an uncached build
/// instead of silently serving another source's product.
struct Table<S, P> {
    slots: FxHashMap<(u64, usize), (S, P)>,
    hits: u64,
    misses: u64,
}

impl<S, P> Default for Table<S, P> {
    fn default() -> Self {
        Table {
            slots: FxHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }
}

/// What distinguishes one product table from another in
/// [`SchemaCache::product`]: where the table lives and how a product
/// travels through the store.
struct Kind<S, P> {
    table: fn(&mut Inner) -> &mut Table<S, P>,
    artifact: ArtifactKind,
    /// The span a miss runs under.
    span: &'static str,
    /// Splits a decoded store artifact into `(sigma, source, product)`;
    /// `None` for an artifact of another kind.
    restore: fn(Artifact) -> Option<(usize, S, P)>,
    /// The store encoding of a fresh product, or `None` to keep it
    /// memory-only.
    encode: fn(&S, usize, &P) -> Option<Vec<u8>>,
}

const SCHEMAS: Kind<Dtd, Arc<Dtd>> = Kind {
    table: |inner| &mut inner.schemas,
    artifact: ArtifactKind::Schema,
    span: "compile",
    restore: |artifact| match artifact {
        Artifact::Schema { source, compiled } => {
            Some((source.alphabet_size(), source, Arc::new(compiled)))
        }
        _ => None,
    },
    encode: |dtd, _, compiled| artifact::encode_schema(dtd, compiled).ok(),
};

const RULES: Kind<StringLang, Arc<Dfa>> = Kind {
    table: |inner| &mut inner.rules,
    artifact: ArtifactKind::Rule,
    span: "compile",
    restore: |artifact| match artifact {
        Artifact::Rule {
            sigma,
            source,
            compiled,
        } => Some((sigma, source, Arc::new(compiled))),
        _ => None,
    },
    encode: |lang, sigma, dfa| Some(artifact::encode_rule(sigma, lang, dfa)),
};

const BOUTS: Kind<Nta, BoutEntry> = Kind {
    table: |inner| &mut inner.bouts,
    artifact: ArtifactKind::Bout,
    span: "delrelab",
    restore: |artifact| match artifact {
        Artifact::Bout {
            sigma,
            source,
            product,
        } => Some((sigma, source, Ok(Arc::new(product)))),
        _ => None,
    },
    // Only `Ok` products are persisted: a `DTAc` validation *failure* is
    // a verdict, not a compiled artifact, and stays memory-only.
    encode: |aout, sigma, built| {
        let product = built.as_ref().ok()?;
        Some(artifact::encode_bout(sigma, aout, product))
    },
};

struct Inner {
    schemas: Table<Dtd, Arc<Dtd>>,
    rules: Table<StringLang, Arc<Dfa>>,
    /// Theorem 20 pipeline products per output NTA at a joint alphabet
    /// size.
    bouts: Table<Nta, BoutEntry>,
    /// The typecheck result memo: whole-instance fingerprint → the
    /// instance (hit verification, retained by `Arc` — never deep-cloned)
    /// and its rendered verdict. Bounded LRU; see
    /// [`SchemaCache::memo_lookup`].
    memo: Lru<u64, (Arc<Instance>, ItemStatus)>,
    /// The memo and store tallies. Its product-table fields stay 0: each
    /// [`Table`] counts its own hits and misses.
    tallies: CacheStats,
}

/// A thread-safe compiled-schema cache. See the module docs.
pub struct SchemaCache {
    inner: Mutex<Inner>,
    /// Optional persistent artifact store: checked read-through on
    /// compile misses, written behind fresh compiles. All store I/O runs
    /// outside the cache mutex.
    store: Option<Arc<dyn ArtifactBackend>>,
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
                schemas: Table::default(),
                rules: Table::default(),
                bouts: Table::default(),
                memo: Lru::new(capacity),
                tallies: CacheStats::default(),
            }),
            store: None,
        }
    }

    /// Mounts a persistent artifact store under the cache. Compile
    /// misses become read-throughs (verified adopt on hit, recompile on
    /// anything else) and fresh compiles are written behind. Collided
    /// fingerprint slots never touch the store.
    pub fn set_store(&mut self, store: Arc<dyn ArtifactBackend>) {
        self.store = Some(store);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The product for `source` from `kind`'s table under the key
    /// `(`[`fingerprint`]`(source), sigma)`, built by `build` at most once
    /// per distinct source:
    ///
    /// 1. a slot whose occupant is `==` to `source` is a hit;
    /// 2. anything else is a miss, run under `kind.span`. A slot owned by
    ///    a *different* source (a 64-bit collision, ~2^-64 per pair) is
    ///    served a fresh build, uncached and never sent to the store —
    ///    correctness must not depend on fingerprints being unique;
    /// 3. otherwise the store is read through, adopting an artifact only
    ///    if its sigma and source verify against the query;
    /// 4. failing that, `build` runs and its product is written behind;
    /// 5. the product is published with the slot re-verified: a racing
    ///    build of a colliding source may have claimed it meanwhile.
    ///
    /// `build` and all store I/O run outside the lock, so a racing miss
    /// can build twice but never corrupts the cache.
    fn product<S: Clone + Eq + Hash, P: Clone>(
        &self,
        kind: &Kind<S, P>,
        sigma: usize,
        source: &S,
        build: impl FnOnce() -> P,
    ) -> P {
        let key = (fingerprint(source), sigma);
        let collided = {
            let mut inner = self.lock();
            let table = (kind.table)(&mut inner);
            match table.slots.get(&key) {
                Some((occupant, hit)) if occupant == source => {
                    let hit = hit.clone();
                    table.hits += 1;
                    return hit;
                }
                slot => {
                    table.misses += 1;
                    slot.is_some()
                }
            }
        };
        let _span = xmlta_obs::span(kind.span);
        if collided {
            return build();
        }
        let product = match self.store_load(kind, key, source) {
            Some(product) => product,
            None => {
                let product = build();
                if let Some(store) = &self.store {
                    if let Some(bytes) = (kind.encode)(source, key.1, &product) {
                        let _span = xmlta_obs::span("store");
                        if store.save(kind.artifact, key.0, key.1, &bytes) {
                            self.lock().tallies.store_writes += 1;
                        }
                    }
                }
                product
            }
        };
        let mut inner = self.lock();
        match (kind.table)(&mut inner).slots.entry(key) {
            Entry::Occupied(e) if e.get().0 != *source => product,
            slot => slot.or_insert((source.clone(), product)).1.clone(),
        }
    }

    /// Read-through: the store's artifact for `key`, decoded and verified
    /// against the query exactly like an in-memory hit verifies its
    /// source. Absent → `store_misses`; present but undecodable or
    /// unverifiable → `store_corrupt` (never fatal: the caller rebuilds).
    fn store_load<S: Eq, P>(&self, kind: &Kind<S, P>, key: (u64, usize), source: &S) -> Option<P> {
        let store = self.store.as_ref()?;
        let _span = xmlta_obs::span("store");
        let Some(bytes) = store.load(kind.artifact, key.0, key.1) else {
            self.lock().tallies.store_misses += 1;
            return None;
        };
        let product = artifact::decode(&bytes)
            .ok()
            .and_then(kind.restore)
            .filter(|(sigma, stored, _)| *sigma == key.1 && stored == source)
            .map(|(_, _, product)| product);
        let mut inner = self.lock();
        match product {
            Some(_) => inner.tallies.store_hits += 1,
            None => inner.tallies.store_corrupt += 1,
        }
        product
    }

    /// Looks up the memoized verdict for an instance with content
    /// fingerprint `fp` ([`fingerprint_instance`]). A hit returns a clone
    /// of the stored verdict — byte-identical to what recomputation would
    /// render, because the stored verdict *was* computed from an instance
    /// verified equal: the very same allocation (pointer identity, the
    /// registered-handle case), or else `==`. A colliding
    /// fingerprint counts as a miss, never as a wrong answer.
    pub fn memo_lookup(&self, fp: u64, instance: &Instance) -> Option<ItemStatus> {
        let mut inner = self.lock();
        match inner.memo.get(&fp) {
            Some((source, status))
                if std::ptr::eq(&**source, instance) || **source == *instance =>
            {
                let status = status.clone();
                inner.tallies.memo_hits += 1;
                Some(status)
            }
            _ => {
                inner.tallies.memo_misses += 1;
                None
            }
        }
    }

    /// Stores the verdict for an instance with fingerprint `fp`. A slot
    /// already owned by a *different* instance (64-bit collision) is left
    /// alone — correctness never depends on fingerprints being unique.
    pub fn memo_insert(&self, fp: u64, instance: &Arc<Instance>, status: &ItemStatus) {
        let mut inner = self.lock();
        if let Some((source, _)) = inner.memo.get(&fp) {
            if !Arc::ptr_eq(source, instance) && source != instance {
                return;
            }
        }
        if inner
            .memo
            .insert(fp, (Arc::clone(instance), status.clone()))
            .is_some()
        {
            inner.tallies.memo_evictions += 1;
        }
    }

    /// `(live entries, capacity)` of the result memo.
    pub fn memo_len(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.memo.len(), inner.memo.capacity())
    }

    /// Compiles `dtd` to `DTD(DFA)` form with `Arc`-shared rules, reusing
    /// previously compiled schemas and rules.
    pub fn compile_dtd(&self, dtd: &Dtd) -> Arc<Dtd> {
        let sigma = dtd.alphabet_size();
        self.product(&SCHEMAS, sigma, dtd, || {
            let mut compiled = Dtd::new(sigma, dtd.start());
            for (sym, lang) in dtd.sorted_rules() {
                compiled.set_rule(sym, StringLang::Dfa(self.compile_rule(lang, sigma)));
            }
            Arc::new(compiled)
        })
    }

    /// Compiles one rule language to a shared DFA, reusing equal rules.
    fn compile_rule(&self, lang: &StringLang, sigma: usize) -> Arc<Dfa> {
        // Already-compiled rules are adopted as-is — no cache entry needed,
        // `to_shared_dfa` is an `Arc` bump.
        if let StringLang::Dfa(_) = lang {
            return lang.to_shared_dfa(sigma);
        }
        self.product(&RULES, sigma, lang, || lang.to_shared_dfa(sigma))
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
        self.product(&BOUTS, sigma, aout, || {
            delrelab::require_dtac(aout).map(|()| Arc::new(delrelab::bout_product(aout, sigma)))
        })
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            schema_hits: inner.schemas.hits,
            schema_misses: inner.schemas.misses,
            rule_hits: inner.rules.hits,
            rule_misses: inner.rules.misses,
            bout_hits: inner.bouts.hits,
            bout_misses: inner.bouts.misses,
            ..inner.tallies
        }
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
    let alphabet_size = instance.alphabet_size();
    if let (Schema::Nta(ain), Schema::Nta(aout)) = (&instance.input, &instance.output) {
        // Mirror the dispatch of `typecheck_core::typecheck` for the
        // Theorem 20 pipeline, with step 3 served from the cache.
        let transducer = typecheck_core::plain_transducer(&instance.transducer, alphabet_size)?;
        // Cheap transducer-class validation first, matching the direct
        // engine's error precedence and skipping the product entirely on
        // unsupported transducers.
        delrelab::require_delrelab(&transducer)?;
        let sigma = delrelab::joint_sigma(ain, aout, alphabet_size);
        let bout = cache.delrelab_bout(aout, sigma)?;
        return delrelab::typecheck_delrelab_with_bout(ain, &bout, &transducer, sigma);
    }
    // Compiled DTDs share their rule tables, so each `Schema` built here is
    // an `Arc` bump; tree automata are passed through borrowed.
    let [input, output] = [&instance.input, &instance.output].map(|schema| match schema {
        Schema::Dtd(d) => Cow::Owned(Schema::Dtd((*cache.compile_dtd(d)).clone())),
        nta => Cow::Borrowed(nta),
    });
    typecheck_core::typecheck_parts(&input, &output, &instance.transducer, alphabet_size)
}

/// The structural fingerprint of `value`: its [`Hash`] fed to an
/// [`FxHasher`]. Every cache key and store file name is one, so values that
/// are `==` fingerprint equal by construction (see the module docs).
pub fn fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
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

/// The per-component fingerprints of an instance: alphabet, each schema
/// section, the transducer header (state names, initial state, alphabet
/// size and selector table), and every transducer rule `(q, a, rhs)`
/// separately. Two versions of an instance share exactly the components
/// whose fingerprints coincide — the unit of reuse the `update` op reports
/// via its `components_reused` counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComponentFingerprints {
    pub alphabet: u64,
    pub input: u64,
    pub output: u64,
    pub transducer_header: u64,
    /// Per-rule fingerprints in canonical `(state, symbol)` order.
    pub rules: Vec<((u32, Symbol), u64)>,
}

impl ComponentFingerprints {
    /// Computes every component fingerprint of `instance`.
    pub fn of(instance: &Instance) -> ComponentFingerprints {
        let [input, output] = [&instance.input, &instance.output].map(fingerprint);
        ComponentFingerprints::assemble(instance, input, output, |q, a, rhs| {
            fingerprint(&(q, a, rhs))
        })
    }

    /// [`ComponentFingerprints::of`] for `instance`, an edit of `prev`
    /// whose fingerprints are `prev_fps`. A rule `instance` shares with
    /// `prev` (the same allocation, as an edited
    /// [`Transducer`](xmlta_transducer::Transducer) shares its
    /// untouched rules) keeps its fingerprint, and so does a DTD that
    /// shares `prev`'s rule table, start and alphabet size; everything
    /// else is hashed. Equal to `of(instance)` whenever `prev_fps` equals
    /// `of(prev)`.
    pub fn of_edit(
        prev: &Instance,
        prev_fps: &ComponentFingerprints,
        instance: &Instance,
    ) -> ComponentFingerprints {
        let schema = |new: &Schema, old: &Schema, old_fp: u64| match (new, old) {
            (Schema::Dtd(n), Schema::Dtd(o))
                if n.shares_rules_with(o)
                    && n.start() == o.start()
                    && n.alphabet_size() == o.alphabet_size() =>
            {
                old_fp
            }
            _ => fingerprint(new),
        };
        let input = schema(&instance.input, &prev.input, prev_fps.input);
        let output = schema(&instance.output, &prev.output, prev_fps.output);
        ComponentFingerprints::assemble(instance, input, output, |q, a, rhs| {
            prev.transducer
                .rule(q, a)
                .filter(|old| std::ptr::eq(*old, rhs))
                .and_then(|_| {
                    let i = prev_fps.rules.binary_search_by_key(&(q, a), |&(k, _)| k);
                    i.ok().map(|i| prev_fps.rules[i].1)
                })
                .unwrap_or_else(|| fingerprint(&(q, a, rhs)))
        })
    }

    /// The fingerprints of `instance` given its schemas', with each rule's
    /// from `rule`.
    fn assemble(
        instance: &Instance,
        input: u64,
        output: u64,
        mut rule: impl FnMut(u32, Symbol, &Rhs) -> u64,
    ) -> ComponentFingerprints {
        let t = &instance.transducer;
        let header = (
            t.state_names(),
            t.initial_state(),
            t.alphabet_size(),
            t.selectors(),
        );
        ComponentFingerprints {
            alphabet: fingerprint(&instance.alphabet),
            input,
            output,
            transducer_header: fingerprint(&header),
            rules: t
                .sorted_rules()
                .into_iter()
                .map(|(q, a, rhs)| ((q, a), rule(q, a, rhs)))
                .collect(),
        }
    }

    /// The whole-instance fingerprint (the result-memo key), combined from
    /// the components.
    pub fn combined(&self) -> u64 {
        fingerprint(self)
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
        assert_ne!(fingerprint(&d), fingerprint(&d2));
        assert_eq!(fingerprint(&d), fingerprint(&d.clone()));
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
        assert_ne!(fingerprint(&n1), fingerprint(&n2));
        assert_eq!(fingerprint(&n1), fingerprint(&n1.clone()));
        assert_eq!(n1, n1.clone());
        assert_ne!(n1, n2);
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

    /// A backend that stores nothing and logs every key it is asked for.
    #[derive(Default)]
    struct LoggingStore(Mutex<Vec<(ArtifactKind, u64, usize)>>);

    impl ArtifactBackend for LoggingStore {
        fn load(&self, kind: ArtifactKind, key: u64, sigma: usize) -> Option<Vec<u8>> {
            self.0.lock().unwrap().push((kind, key, sigma));
            None
        }

        fn save(&self, kind: ArtifactKind, key: u64, sigma: usize, _: &[u8]) -> bool {
            self.0.lock().unwrap().push((kind, key, sigma));
            true
        }
    }

    /// Plants `foreign` under `key` in `kind`'s table of a store-backed
    /// cache, then typechecks `instance` through it twice: each run must
    /// get a fresh, correct product, while the occupant keeps its slot and
    /// the store never hears of the key.
    fn check_collision<S: Clone + Eq, P: Clone>(
        kind: &Kind<S, P>,
        key: (u64, usize),
        foreign: (S, P),
        instance: &Instance,
    ) {
        let store = Arc::new(LoggingStore::default());
        let mut cache = SchemaCache::new();
        cache.set_store(store.clone());
        let occupant = foreign.0.clone();
        (kind.table)(&mut cache.lock()).slots.insert(key, foreign);
        let reference = typecheck_core::typecheck(instance);
        for _ in 0..2 {
            assert_eq!(typecheck_cached(&cache, instance), reference);
        }
        let mut inner = cache.lock();
        let slot = &(kind.table)(&mut inner).slots[&key];
        assert!(slot.0 == occupant, "the occupant keeps its slot");
        let log = store.0.lock().unwrap();
        assert!(
            !log.contains(&(kind.artifact, key.0, key.1)),
            "a collided slot never reaches the store: {log:?}"
        );
    }

    #[test]
    fn collided_slots_are_served_fresh_and_left_alone() {
        use xmlta_schema::{convert::dtd_to_nta, dta};
        use xmlta_transducer::TransducerBuilder;

        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        let dout = Dtd::parse("s -> y*", &mut a).unwrap();
        // The occupants' products: served in place of `dout`'s, they
        // would flip the verdict (`x*` inputs map to any number of `y`s).
        let foreign = Dtd::parse("s -> y", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "s(q)")
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dtds = |out: &Dtd| Instance::dtds(a.clone(), din.clone(), out.clone(), t.clone());
        let outcome = |i: &Instance| typecheck_core::typecheck(i).expect("engine runs");
        assert!(outcome(&dtds(&dout)).type_checks());
        assert!(!outcome(&dtds(&foreign)).type_checks());
        let sigma = dout.alphabet_size();
        let compiled_foreign = SchemaCache::new().compile_dtd(&foreign);

        // Schema level: a foreign DTD owns `dout`'s slot.
        let key = (fingerprint(&dout), sigma);
        let planted = (foreign.clone(), compiled_foreign.clone());
        check_collision(&SCHEMAS, key, planted, &dtds(&dout));

        // Rule level: a foreign rule owns the slot of `dout`'s `s` rule.
        let s = a.sym("s");
        let lang = dout.rule(s).unwrap();
        let foreign_lang = foreign.rule(s).unwrap().clone();
        let foreign_dfa = compiled_foreign.rule(s).unwrap().to_shared_dfa(sigma);
        let key = (fingerprint(lang), sigma);
        check_collision(&RULES, key, (foreign_lang, foreign_dfa), &dtds(&dout));

        // Tree-automata level: a foreign output NTA owns the `B_out` slot.
        let ntas = |out: &Dtd| {
            let aout = dta::complete(&dtd_to_nta(out));
            Instance::ntas(a.clone(), dtd_to_nta(&din), aout, t.clone())
        };
        let (instance, other) = (ntas(&dout), ntas(&foreign));
        assert!(outcome(&instance).type_checks());
        assert!(!outcome(&other).type_checks());
        let (Schema::Nta(ain), Schema::Nta(aout)) = (&instance.input, &instance.output) else {
            unreachable!()
        };
        let Schema::Nta(foreign_aout) = &other.output else {
            unreachable!()
        };
        let sigma = delrelab::joint_sigma(ain, aout, instance.alphabet_size());
        let product = Arc::new(delrelab::bout_product(foreign_aout, sigma));
        let key = (fingerprint(aout), sigma);
        check_collision(&BOUTS, key, (foreign_aout.clone(), Ok(product)), &instance);
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
