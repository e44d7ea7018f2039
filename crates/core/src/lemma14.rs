//! The Lemma 14 / Theorem 15 typechecking engine for DTD schemas.
//!
//! # Relation to the paper
//!
//! Lemma 14 builds an unranked tree automaton `B` accepting exactly the
//! counterexample trees `{t ∈ L(d_in) | T(t) ∉ L(d_out)}` and decides
//! emptiness. `B` nondeterministically (i) validates `d_in`, (ii) picks a
//! node `v` (processed in state `q`) and a node `u` of `rhs(q, a)` whose
//! output children-string should violate `d_out`, and (iii) *guesses* pairs
//! `(ℓ, r)` of output-DFA states summarizing the effect of each subtree's
//! translations, verifying the guesses below.
//!
//! This engine computes the same information deterministically, bottom-up:
//! for every input symbol `a` it derives the set `S(a)` of realizable
//! **profiles** — maps assigning to each transducer state `q` the full
//! behavior (see [`crate::behavior`]) of `top(T^q(t))` on the output DFAs,
//! for some tree `t` rooted at `a` that partly satisfies `d_in`. A profile
//! is exactly the set of all `(ℓ, r)` guesses the paper's `B` could verify
//! for that subtree, so the fixpoint reaches a state of `B` iff it reaches
//! the corresponding (symbol, profile) pair; emptiness of `B` ⟺ no
//! violating configuration here. The `C × K` analysis of the paper bounds
//! the number of *distinct compositions tracked per walk* in the same way it
//! bounds `B`'s state tuples, which is why the engine is polynomial on
//! `T^{C,K}_trac` (Theorem 15) — and why we expose resource caps rather than
//! promising polynomial behavior outside that class.

use crate::behavior::{BehaviorId, BehaviorTable, OutputAutomaton, DEAD};
use crate::{CounterExample, Outcome, TypecheckError};
use std::collections::VecDeque;
use std::sync::Arc;
use xmlta_automata::Dfa;
use xmlta_base::{BitSet, FxHashMap, Symbol};
use xmlta_schema::Dtd;
use xmlta_transducer::rhs::{RhsNode, StateId};
use xmlta_transducer::Transducer;

/// Cap on walk nodes explored per (symbol, round) — exceeding it means the
/// instance is far outside the tractable class.
const WALK_NODE_CAP: usize = 400_000;
/// Cap on distinct profiles.
const PROFILE_CAP: usize = 200_000;
/// Cap on counterexample tree expansion.
const WITNESS_NODE_CAP: usize = 2_000_000;

/// One item of a `top(rhs)` string or an output node's children string:
/// a precomposed run of output symbols, or a transducer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopItem {
    /// Behavior of a maximal run of output symbols.
    Beh(BehaviorId),
    /// A transducer state (expands over the input node's children).
    St(StateId),
}

/// A per-output-node check: start in `start`, fold the items, demand a final
/// state. `start` is a content-model initial state or the virtual root.
#[derive(Debug, Clone)]
struct Check {
    start: u32,
    items: Vec<TopItem>,
}

/// Profile id.
pub type ProfileId = u32;

/// The engine with all fixpoint structures retained (reused by
/// [`crate::almost_always`]).
pub struct Lemma14Engine {
    pub(crate) sigma: usize,
    pub(crate) din: Dtd,
    pub(crate) din_dfas: Vec<Arc<Dfa>>,
    pub(crate) din_start: usize,
    pub(crate) productive: Vec<bool>,
    pub(crate) out: OutputAutomaton,
    pub(crate) behaviors: BehaviorTable,
    pub(crate) t: Transducer,
    /// Profile id → per-transducer-state behavior ids.
    pub(crate) profiles: Vec<Box<[BehaviorId]>>,
    profile_ids: FxHashMap<Box<[BehaviorId]>, ProfileId>,
    /// Per symbol: realizable profiles, in discovery order.
    pub(crate) s_sets: Vec<Vec<ProfileId>>,
    /// Per symbol: the same sets as bitsets (O(1) membership).
    s_member: Vec<BitSet>,
    /// Witness derivation per (symbol, profile): the children sequence.
    pub(crate) witness: FxHashMap<(usize, ProfileId), Vec<(usize, ProfileId)>>,
    /// `top(rhs(q, a))` items per rule.
    tops: FxHashMap<(StateId, usize), Vec<TopItem>>,
    /// Checks per rule.
    checks: FxHashMap<(StateId, usize), Vec<Check>>,
    /// Reachable (state, symbol) pairs with context provenance.
    pub(crate) reachable: FxHashMap<(StateId, usize), Option<ReachStep>>,
    /// Retained walks keyed by `(symbol, tracked-state set)`.
    ///
    /// A walk is a monotone closure: growing the child profile sets only
    /// ever *adds* nodes and edges. So instead of rebuilding a symbol's
    /// walk from scratch on every dirty fixpoint round — and again for
    /// every reachable pair in [`Lemma14Engine::find_violation`] — walks
    /// are kept here and [`Lemma14Engine::extend_walk`] applies exactly
    /// the profiles that arrived since the walk was last visited.
    walks: FxHashMap<(usize, Box<[StateId]>), Walk>,
    /// Per symbol `a`: the letters occurring in some word of `L(d_in(a))`
    /// over productive symbols. Filled by the first
    /// [`Lemma14Engine::compute_reachable`]; one trimmed-DFA scan per symbol
    /// replaces the per-(a, b) witness BFS the reachability loop used to
    /// run (the dominant cost on deep DTDs). Depends only on `d_in`, so a
    /// transducer edit keeps it.
    pub(crate) child_letters: Vec<BitSet>,
    /// `parents_of[c]`: the productive symbols whose rule DFA mentions `c`
    /// (see [`Lemma14Engine::ensure_parents_of`]). Depends only on `d_in`;
    /// built on first use and kept across transducer edits.
    parents_of: Vec<Vec<usize>>,
    /// Pairs `(q, a)` that [`Lemma14Engine::find_violation`] has verified
    /// violation-free, at bit `q * sigma + a`. A transducer edit clears the
    /// bits of its ancestor closure; every other pair's checks and walk are
    /// untouched by the edit, so its verdict still holds.
    clean: BitSet,
}

/// How a reachable pair was reached: from `parent`, via some children word
/// of the parent symbol containing the child symbol.
///
/// The witness word itself is *not* stored: it is only needed when a
/// counterexample context is actually built, so
/// `Lemma14Engine::build_counterexample` re-derives it lazily with
/// `Lemma14Engine::word_with_child`.
#[derive(Debug, Clone)]
pub struct ReachStep {
    pub(crate) parent: (StateId, usize),
    pub(crate) child: usize,
}

/// A violating configuration found by the search.
pub(crate) struct Violation {
    pub(crate) pair: (StateId, usize),
    /// Children of the violating node: (symbol, profile) per child.
    pub(crate) children: Vec<(usize, ProfileId)>,
}

impl Lemma14Engine {
    /// Builds the engine. Non-DFA DTD rules are determinized here.
    pub fn new(
        din: &Dtd,
        dout: &Dtd,
        t: &Transducer,
        alphabet_size: usize,
    ) -> Result<Lemma14Engine, TypecheckError> {
        if t.uses_selectors() {
            return Err(TypecheckError::Unsupported(
                "expand selectors before running the Lemma 14 engine".into(),
            ));
        }
        let sigma = alphabet_size
            .max(din.alphabet_size())
            .max(dout.alphabet_size())
            .max(t.alphabet_size());

        // Each rule DFA is materialized exactly once and *shared*: a
        // `StringLang::Dfa` rule (e.g. handed out by the service layer's
        // schema-compilation cache) is adopted by `Arc` bump, never cloned.
        let din_dfas: Vec<Arc<Dfa>> = (0..sigma)
            .map(|s| match din.rule(Symbol::from_index(s)) {
                Some(lang) => lang.to_shared_dfa(sigma),
                None => Arc::new(Dfa::epsilon_only(sigma)),
            })
            .collect();
        let mut din = din.clone();
        din.grow_alphabet(sigma);

        // `dout` is consumed here: the joint output automaton and the
        // precomputed behaviors are all the engine ever reads from it.
        let out = OutputAutomaton::build(dout, sigma);
        let mut behaviors = BehaviorTable::new(out.total());
        let productive = productive_from_dfas(&din_dfas);

        // Precompute top items and checks per rule.
        let mut tops = FxHashMap::default();
        let mut checks = FxHashMap::default();
        for (q, a, rhs) in t.rules() {
            let top_items = items_of_children(&rhs.nodes, &out, &mut behaviors);
            tops.insert((q, a.index()), top_items);
            let mut cs = Vec::new();
            collect_checks(&rhs.nodes, &out, &mut behaviors, &mut cs);
            checks.insert((q, a.index()), cs);
        }

        Ok(Lemma14Engine {
            sigma,
            din_start: din.start().index(),
            din,
            din_dfas,
            productive,
            out,
            behaviors,
            t: t.clone(),
            profiles: Vec::new(),
            profile_ids: FxHashMap::default(),
            s_sets: vec![Vec::new(); sigma],
            s_member: vec![BitSet::new(); sigma],
            witness: FxHashMap::default(),
            tops,
            checks,
            reachable: FxHashMap::default(),
            walks: FxHashMap::default(),
            child_letters: Vec::new(),
            parents_of: Vec::new(),
            clean: BitSet::new(),
        })
    }

    fn intern_profile(&mut self, p: Box<[BehaviorId]>) -> ProfileId {
        if let Some(&id) = self.profile_ids.get(&p) {
            return id;
        }
        let id = self.profiles.len() as ProfileId;
        self.profiles.push(p.clone());
        self.profile_ids.insert(p, id);
        id
    }

    /// The states whose compositions a walk for symbol `a` must track to
    /// assemble full profiles.
    fn top_states_of(&self, a: usize) -> Vec<StateId> {
        let mut out: Vec<StateId> = Vec::new();
        for q in 0..self.t.num_states() as StateId {
            if let Some(items) = self.tops.get(&(q, a)) {
                for item in items {
                    if let TopItem::St(p) = item {
                        if !out.contains(p) {
                            out.push(*p);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Fills [`Lemma14Engine::parents_of`] unless it is already built:
    /// `parents_of[c]` lists the productive symbols whose rule DFA mentions
    /// `c` — exactly the symbols whose walks can consume a profile of `c`.
    fn ensure_parents_of(&mut self) {
        if self.parents_of.len() == self.sigma {
            return;
        }
        let mut parents_of: Vec<Vec<usize>> = vec![Vec::new(); self.sigma];
        for a in 0..self.sigma {
            if !self.productive[a] {
                continue;
            }
            let dfa = &self.din_dfas[a];
            let mut seen = BitSet::new();
            for q in 0..dfa.num_states() as u32 {
                for c in 0..self.sigma as u32 {
                    if dfa.step(q, c).is_some() && seen.insert(c) {
                        parents_of[c as usize].push(a);
                    }
                }
            }
        }
        self.parents_of = parents_of;
    }

    /// Runs the profile fixpoint (the bottom-up reachability of the paper's
    /// `B`, quotiented by behavior).
    ///
    /// Worklist-driven: a symbol is only re-explored when the realizable
    /// profile set of one of its possible child symbols grew since its last
    /// exploration. The seed engine rescanned every symbol every round,
    /// which costs a full walk rebuild per symbol per DTD level on deep
    /// schemas; dirty tracking makes the total work proportional to the
    /// number of actual profile propagations.
    pub fn run_fixpoint(&mut self) -> Result<(), TypecheckError> {
        let seeds: Vec<usize> = (0..self.sigma).filter(|&a| self.productive[a]).collect();
        self.run_fixpoint_seeded(&seeds)
    }

    /// [`Lemma14Engine::run_fixpoint`] restricted to a dirty set: only
    /// `seeds` (and symbols transitively re-dirtied by their growth) are
    /// re-explored; every other symbol keeps its realizable profile set and
    /// retained walk untouched.
    ///
    /// Sound whenever the profile sets of all non-seed symbols are already
    /// complete — which [`Lemma14Engine::apply_transducer_edit`] guarantees
    /// by seeding with the ancestor closure of the edited symbols: that
    /// closure is upward-closed under `parents_of`, so dirtiness can never
    /// escape it, and symbols outside it have no edited rule anywhere in
    /// their derivations.
    pub fn run_fixpoint_seeded(&mut self, seeds: &[usize]) -> Result<(), TypecheckError> {
        self.ensure_parents_of();
        let mut dirty: Vec<bool> = vec![false; self.sigma];
        for &a in seeds {
            if self.productive[a] {
                dirty[a] = true;
            }
        }
        loop {
            let mut any_grew = false;
            for a in 0..self.sigma {
                if !dirty[a] {
                    continue;
                }
                dirty[a] = false;
                let needed = self.top_states_of(a);
                let mut walk = self.explore(a, &needed)?;
                let mut grew = false;
                // Accepting nodes below the watermark were assembled in an
                // earlier round (their hvecs never change); only the newly
                // discovered ones can contribute fresh profiles.
                for i in walk.accepting_done..walk.accepting.len() {
                    let node = walk.accepting[i];
                    let profile = self.assemble_profile(a, &needed, walk.hvec_of(node));
                    let pid = self.intern_profile(profile);
                    if self.profiles.len() > PROFILE_CAP {
                        return Err(TypecheckError::ResourceLimit(format!(
                            "more than {PROFILE_CAP} behavior profiles; instance is far \
                             outside the tractable class"
                        )));
                    }
                    if self.s_member[a].insert(pid) {
                        self.s_sets[a].push(pid);
                        let children = walk.path_to(node);
                        self.witness.insert((a, pid), children);
                        grew = true;
                    }
                }
                walk.accepting_done = walk.accepting.len();
                self.put_walk(a, &needed, walk);
                if grew {
                    any_grew = true;
                    for &p in &self.parents_of[a] {
                        dirty[p] = true;
                    }
                }
            }
            if !any_grew {
                return Ok(());
            }
        }
    }

    /// Applies a transducer edit in place, invalidating exactly the state
    /// the edit can affect, and returns the dirty symbol set to seed
    /// [`Lemma14Engine::run_fixpoint_seeded`] with.
    ///
    /// The edit is expressed as the *whole* new transducer; the engine
    /// diffs rules by structural equality. Only the **ancestor closure**
    /// (under the input-DTD parent relation) of the symbols with an added,
    /// removed, or changed rule is invalidated: profiles, witnesses, and
    /// retained walks of every other symbol remain valid because no rule in
    /// any of their derivations changed — a symbol outside the closure
    /// cannot have a closure member anywhere below it (the closure is
    /// upward-closed by construction).
    ///
    /// Returns `Err(Unsupported)` when the edit cannot be applied
    /// incrementally (selectors, a changed state space, or symbols beyond
    /// the engine's alphabet); the caller should rebuild from scratch.
    /// The engine is unchanged in that case.
    pub fn apply_transducer_edit(
        &mut self,
        t_new: &Transducer,
    ) -> Result<Vec<usize>, TypecheckError> {
        if t_new.uses_selectors() {
            return Err(TypecheckError::Unsupported(
                "expand selectors before editing the Lemma 14 engine".into(),
            ));
        }
        if t_new.num_states() != self.t.num_states()
            || t_new.initial_state() != self.t.initial_state()
        {
            return Err(TypecheckError::Unsupported(
                "incremental edit cannot change the transducer state space".into(),
            ));
        }
        if t_new.alphabet_size() > self.sigma {
            return Err(TypecheckError::Unsupported(
                "incremental edit introduces symbols beyond the engine alphabet".into(),
            ));
        }
        // Diff the rule maps: every (q, a) present on either side with a
        // different rhs marks `a` as edited. A transducer edited from this
        // one shares its untouched rules, so pointer equality settles most
        // pairs without a structural comparison.
        let mut changed_pairs: Vec<(StateId, usize)> = Vec::new();
        let mut edited = BitSet::new();
        for (q, a, rhs) in self.t.rules() {
            if !t_new
                .rule(q, a)
                .is_some_and(|new| std::ptr::eq(new, rhs) || new == rhs)
            {
                changed_pairs.push((q, a.index()));
                edited.insert(a.index() as u32);
            }
        }
        for (q, a, _) in t_new.rules() {
            if self.t.rule(q, a).is_none() {
                changed_pairs.push((q, a.index()));
                edited.insert(a.index() as u32);
            }
        }
        if changed_pairs.is_empty() {
            self.t = t_new.clone();
            return Ok(Vec::new());
        }
        // Refresh per-rule precomputations for exactly the changed pairs.
        // The behavior table only grows — existing ids stay valid.
        for &(q, a) in &changed_pairs {
            match t_new.rule(q, Symbol::from_index(a)) {
                Some(rhs) => {
                    let top_items = items_of_children(&rhs.nodes, &self.out, &mut self.behaviors);
                    self.tops.insert((q, a), top_items);
                    let mut cs = Vec::new();
                    collect_checks(&rhs.nodes, &self.out, &mut self.behaviors, &mut cs);
                    self.checks.insert((q, a), cs);
                }
                None => {
                    self.tops.remove(&(q, a));
                    self.checks.remove(&(q, a));
                }
            }
        }
        self.t = t_new.clone();
        // Ancestor closure of the edited symbols under `parents_of`.
        self.ensure_parents_of();
        let mut in_closure = edited.clone();
        let mut queue: Vec<usize> = edited.iter().map(|c| c as usize).collect();
        let mut closure: Vec<usize> = queue.clone();
        while let Some(c) = queue.pop() {
            for &p in &self.parents_of[c] {
                if in_closure.insert(p as u32) {
                    closure.push(p);
                    queue.push(p);
                }
            }
        }
        // Invalidate the closure: realizable profiles, witnesses, walks, and
        // the clean marks of every pair on a closure symbol.
        for &a in &closure {
            self.s_sets[a].clear();
            self.s_member[a] = BitSet::new();
            for q in 0..self.t.num_states() as StateId {
                if let Some(b) = self.pair_bit(q, a) {
                    self.clean.remove(b);
                }
            }
        }
        self.witness
            .retain(|&(a, _), _| !in_closure.contains(a as u32));
        self.walks
            .retain(|&(a, _), _| !in_closure.contains(a as u32));
        // Defensive: reset retained walks' per-symbol watermarks for closure
        // symbols. By the closure property no surviving walk can actually
        // step on one, but a stale watermark above the (now cleared) profile
        // list length must never be sliced with.
        for walk in self.walks.values_mut() {
            for &a in &closure {
                if a < walk.consumed.len() {
                    walk.consumed[a] = 0;
                }
            }
        }
        Ok(closure)
    }

    /// The productive input symbols over the engine's alphabet: exactly
    /// [`Dtd::productive_symbols`] of `d_in` grown to that alphabet, so
    /// [`Dtd::sample_tree_with`] can reuse it for every sample.
    pub fn productive(&self) -> &[bool] {
        &self.productive
    }

    /// Number of retained `(symbol, tracked-state set)` walks — the reuse
    /// the incremental path gets for free on the next fixpoint.
    pub fn retained_walks(&self) -> usize {
        self.walks.len()
    }

    /// Special case of the verdict: the initial state has no rule for the
    /// (productive) input root, so every valid input maps to ε, which is
    /// never a valid output tree.
    fn root_rule_missing(&self) -> bool {
        self.productive[self.din_start]
            && self
                .t
                .rule(self.t.initial_state(), Symbol::from_index(self.din_start))
                .is_none()
    }

    /// The verdict alone from a completed fixpoint + reachability pass:
    /// whether the instance typechecks. Builds no counterexample, and
    /// agrees with [`Lemma14Engine::outcome`] on every engine state.
    pub fn type_checks(&mut self) -> Result<bool, TypecheckError> {
        if self.root_rule_missing() {
            return Ok(false);
        }
        Ok(self.find_violation()?.is_none())
    }

    /// Derives the outcome from a completed fixpoint + reachability pass.
    /// Factored out of [`typecheck_dtds`] so incremental re-checks share the
    /// exact verdict logic (missing-root-rule special case included).
    pub fn outcome(&mut self) -> Result<Outcome, TypecheckError> {
        if self.root_rule_missing() {
            let input = self
                .din
                .sample_tree_with(Symbol::from_index(self.din_start), &self.productive)
                .expect("productive start");
            let output = self.t.apply(&input);
            return Ok(Outcome::CounterExample(CounterExample { input, output }));
        }
        match self.find_violation()? {
            None => Ok(Outcome::TypeChecks),
            Some(v) => {
                let ce = self.build_counterexample(&v)?;
                Ok(Outcome::CounterExample(ce))
            }
        }
    }

    /// Assembles the full profile from tracked compositions.
    fn assemble_profile(
        &mut self,
        a: usize,
        needed: &[StateId],
        hvec: &[BehaviorId],
    ) -> Box<[BehaviorId]> {
        // Split borrows: `tops` is only read, `behaviors` only composes.
        let Lemma14Engine {
            tops, behaviors, t, ..
        } = self;
        let pos = |p: StateId| needed.iter().position(|&x| x == p).expect("tracked");
        let mut out = Vec::with_capacity(t.num_states());
        for q in 0..t.num_states() as StateId {
            let f = match tops.get(&(q, a)) {
                None => behaviors.identity(),
                Some(items) => {
                    let mut acc = behaviors.identity();
                    for item in items {
                        let b = match item {
                            TopItem::Beh(b) => *b,
                            TopItem::St(p) => hvec[pos(*p)],
                        };
                        acc = behaviors.compose(acc, b);
                    }
                    acc
                }
            };
            out.push(f);
        }
        out.into_boxed_slice()
    }

    /// Takes the retained walk for `(a, needed)` — empty if none yet — and
    /// brings it up to date with the current profile sets. The caller uses
    /// it and hands it back via [`Lemma14Engine::put_walk`].
    fn explore(&mut self, a: usize, needed: &[StateId]) -> Result<Walk, TypecheckError> {
        let mut walk = self
            .walks
            .remove(&(a, Box::from(needed)))
            .unwrap_or_default();
        self.extend_walk(a, needed, &mut walk, false)?;
        Ok(walk)
    }

    /// Returns a walk taken with [`Lemma14Engine::explore`] to the cache.
    fn put_walk(&mut self, a: usize, needed: &[StateId], walk: Walk) {
        self.walks.insert((a, Box::from(needed)), walk);
    }

    /// [`Lemma14Engine::explore`] variant that additionally records *every*
    /// edge (not just BFS parents) in [`Walk::edges`], for the pumping
    /// analyses of the almost-always module. Always explores from scratch:
    /// a retained walk only has the edges discovered since it was cached.
    pub(crate) fn explore_recording_edges(
        &mut self,
        a: usize,
        needed: &[StateId],
    ) -> Result<Walk, TypecheckError> {
        let mut walk = Walk::default();
        self.extend_walk(a, needed, &mut walk, true)?;
        Ok(walk)
    }

    /// Extends `walk` with everything derivable from the profiles that
    /// arrived since its last extension.
    ///
    /// Nodes present before this call re-scan only the *new* profiles of
    /// each child symbol (`Walk::consumed` records the per-symbol
    /// watermark); nodes discovered during the call scan all of them. The
    /// hot loop is allocation-free on the repeat paths: composition
    /// vectors are interned into the walk's hvec arena, walk nodes are
    /// packed `(DFA state, hvec id)` keys in an Fx map, and the
    /// `(hvec, profile) → hvec'` transition memo persists with the walk, so
    /// re-deriving a known composition costs one u64 lookup even across
    /// fixpoint rounds.
    fn extend_walk(
        &mut self,
        a: usize,
        needed: &[StateId],
        walk: &mut Walk,
        record_edges: bool,
    ) -> Result<(), TypecheckError> {
        let sigma = self.sigma;
        // Split borrows: the DFA and profile tables are read-only here while
        // `behaviors` interns compositions — no clones of any of them.
        let Lemma14Engine {
            din_dfas,
            behaviors,
            s_sets,
            profiles,
            ..
        } = self;
        let dfa = &din_dfas[a];
        if walk.nodes.is_empty() {
            let ident = behaviors.identity();
            let start_h: Box<[BehaviorId]> = vec![ident; needed.len()].into_boxed_slice();
            let h0 = walk.intern_hvec(start_h);
            let init = dfa.initial_state();
            walk.intern_node(init, h0, dfa.is_final_state(init), None);
        }
        if walk.consumed.len() < sigma {
            walk.consumed.resize(sigma, 0);
        }
        let old_len = walk.nodes.len();
        let mut scratch: Vec<BehaviorId> = Vec::with_capacity(needed.len());
        let mut n = 0usize;
        // Nodes are appended in discovery order, so the index scan is BFS.
        while n < walk.nodes.len() {
            let (d, h) = walk.nodes[n];
            for (c, pids) in s_sets.iter().enumerate().take(sigma) {
                let Some(d2) = dfa.step(d, c as u32) else {
                    continue;
                };
                // Pre-existing nodes already saw the first `consumed[c]`
                // profiles of `c` in an earlier extension.
                let skip = if n < old_len { walk.consumed[c] } else { 0 };
                for &pid in &pids[skip..] {
                    let memo_key = (u64::from(h) << 32) | u64::from(pid);
                    let h2 = match walk.step_memo.get(&memo_key) {
                        Some(&h2) => h2,
                        None => {
                            scratch.clear();
                            let hvec = &walk.hvecs[h as usize];
                            for (i, &p) in needed.iter().enumerate() {
                                let f_p = profiles[pid as usize][p as usize];
                                scratch.push(behaviors.compose(hvec[i], f_p));
                            }
                            let h2 = walk.intern_hvec(scratch.as_slice().into());
                            walk.step_memo.insert(memo_key, h2);
                            h2
                        }
                    };
                    match walk.node_id(d2, h2) {
                        Some(to) => {
                            if record_edges {
                                walk.edges.push((n as u32, to, c, pid));
                            }
                        }
                        None => {
                            if walk.nodes.len() >= WALK_NODE_CAP {
                                return Err(TypecheckError::ResourceLimit(format!(
                                    "walk for symbol #{a} exceeded {WALK_NODE_CAP} nodes"
                                )));
                            }
                            let to = walk.intern_node(
                                d2,
                                h2,
                                dfa.is_final_state(d2),
                                Some((n as u32, c, pid)),
                            );
                            if record_edges {
                                walk.edges.push((n as u32, to, c, pid));
                            }
                        }
                    }
                }
            }
            n += 1;
        }
        for (consumed, pids) in walk.consumed.iter_mut().zip(s_sets.iter()) {
            *consumed = pids.len();
        }
        Ok(())
    }

    /// Computes the reachable `(state, symbol)` pairs (the descent of the
    /// paper's construction), with provenance for counterexample contexts.
    pub fn compute_reachable(&mut self) {
        if self.child_letters.len() != self.sigma {
            self.compute_child_letters();
        }
        self.reachable.clear();
        if !self.productive[self.din_start] {
            return; // empty input language
        }
        let Lemma14Engine {
            t,
            child_letters,
            reachable,
            din_start,
            ..
        } = self;
        let root = (t.initial_state(), *din_start);
        reachable.insert(root, None);
        let mut queue = VecDeque::from([root]);
        while let Some((q, a)) = queue.pop_front() {
            let Some(rhs) = t.rule(q, Symbol::from_index(a)) else {
                continue;
            };
            let states = rhs.all_state_occurrences();
            if states.is_empty() {
                continue;
            }
            for b in child_letters[a].iter() {
                let b = b as usize;
                for &p in &states {
                    let key = (p, b);
                    if let std::collections::hash_map::Entry::Vacant(e) = reachable.entry(key) {
                        e.insert(Some(ReachStep {
                            parent: (q, a),
                            child: b,
                        }));
                        queue.push_back(key);
                    }
                }
            }
        }
    }

    /// Fills [`Lemma14Engine::child_letters`]: for each productive symbol
    /// `a`, trims `d_in(a)`'s DFA to the productive-letter part that is both
    /// reachable and co-reachable, and collects the letters on the surviving
    /// edges. `b ∈ child_letters[a]` iff some word of `L(d_in(a))` over
    /// productive symbols contains `b` — exactly the adjacency the
    /// reachability descent and the pumping analyses test.
    fn compute_child_letters(&mut self) {
        self.child_letters = (0..self.sigma)
            .map(|a| {
                let mut letters = BitSet::new();
                if !self.productive[a] {
                    return letters;
                }
                let dfa = &self.din_dfas[a];
                let n = dfa.num_states();
                // Forward reachability over productive letters.
                let mut fwd = vec![false; n];
                let mut stack = vec![dfa.initial_state()];
                fwd[dfa.initial_state() as usize] = true;
                while let Some(q) = stack.pop() {
                    for c in 0..self.sigma as u32 {
                        if !self.productive[c as usize] {
                            continue;
                        }
                        if let Some(r) = dfa.step(q, c) {
                            if !fwd[r as usize] {
                                fwd[r as usize] = true;
                                stack.push(r);
                            }
                        }
                    }
                }
                // Backward co-reachability to a final state.
                let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
                for q in 0..n as u32 {
                    if !fwd[q as usize] {
                        continue;
                    }
                    for c in 0..self.sigma as u32 {
                        if !self.productive[c as usize] {
                            continue;
                        }
                        if let Some(r) = dfa.step(q, c) {
                            rev[r as usize].push(q);
                        }
                    }
                }
                let mut bwd = vec![false; n];
                let mut stack: Vec<u32> = (0..n as u32)
                    .filter(|&q| fwd[q as usize] && dfa.is_final_state(q))
                    .collect();
                for &q in &stack {
                    bwd[q as usize] = true;
                }
                while let Some(q) = stack.pop() {
                    for &p in &rev[q as usize] {
                        if !bwd[p as usize] {
                            bwd[p as usize] = true;
                            stack.push(p);
                        }
                    }
                }
                // Letters on trimmed edges.
                for q in 0..n as u32 {
                    if !(fwd[q as usize] && bwd[q as usize]) {
                        continue;
                    }
                    for c in 0..self.sigma as u32 {
                        if !self.productive[c as usize] || letters.contains(c) {
                            continue;
                        }
                        if let Some(r) = dfa.step(q, c) {
                            if fwd[r as usize] && bwd[r as usize] {
                                letters.insert(c);
                            }
                        }
                    }
                }
                letters
            })
            .collect();
    }

    /// A word of `L(d_in(a))` over productive symbols containing `b`, with
    /// the position of one `b` occurrence.
    pub(crate) fn word_with_child(&self, a: usize, b: usize) -> Option<(Vec<Symbol>, usize)> {
        let dfa = &self.din_dfas[a];
        // Two-layer BFS with parent pointers.
        let n = dfa.num_states();
        let idx = |q: u32, layer: usize| q as usize * 2 + layer;
        let mut parent: Vec<Option<(u32, usize, u32)>> = vec![None; n * 2];
        let mut seen = vec![false; n * 2];
        let start = idx(dfa.initial_state(), 0);
        seen[start] = true;
        let mut queue = VecDeque::from([(dfa.initial_state(), 0usize)]);
        let mut hit = None;
        'bfs: while let Some((q, layer)) = queue.pop_front() {
            if layer == 1 && dfa.is_final_state(q) {
                hit = Some((q, layer));
                break 'bfs;
            }
            for c in 0..self.sigma as u32 {
                if !self.productive[c as usize] {
                    continue;
                }
                let Some(r) = dfa.step(q, c) else { continue };
                let nl = if c as usize == b { 1 } else { layer };
                if nl < layer {
                    continue;
                }
                let j = idx(r, nl);
                if !seen[j] {
                    seen[j] = true;
                    parent[j] = Some((q, layer, c));
                    queue.push_back((r, nl));
                }
            }
        }
        let (mut q, mut layer) = hit?;
        let mut word = Vec::new();
        let mut position = None;
        while let Some((pq, pl, c)) = parent[idx(q, layer)] {
            word.push(Symbol(c));
            if pl == 0 && layer == 1 {
                position = Some(word.len() - 1); // will be re-indexed after reverse
            }
            q = pq;
            layer = pl;
        }
        word.reverse();
        let position = word.len() - 1 - position?;
        debug_assert_eq!(word[position].index(), b);
        Some((word, position))
    }

    /// The bit of pair `(q, a)` in [`Lemma14Engine::clean`], or `None` when
    /// the index does not fit a bit index (such a pair is never marked).
    fn pair_bit(&self, q: StateId, a: usize) -> Option<u32> {
        u32::try_from(q as usize * self.sigma + a).ok()
    }

    /// Searches for a violating configuration. Requires the fixpoint and
    /// reachability to have run.
    ///
    /// Pairs already verified clean are skipped; every pair found clean
    /// here is marked so. Skipping cannot change which violation is found:
    /// a clean pair has none.
    pub(crate) fn find_violation(&mut self) -> Result<Option<Violation>, TypecheckError> {
        if !self.productive[self.din_start] {
            return Ok(None); // L(d_in) = ∅: vacuously typechecks
        }
        let root = (self.t.initial_state(), self.din_start);
        let pairs: Vec<(StateId, usize)> = self.reachable.keys().copied().collect();
        for (q, a) in pairs {
            let bit = self.pair_bit(q, a);
            if bit.is_some_and(|b| self.clean.contains(b)) {
                continue;
            }
            if let Some(v) = self.violation_at(q, a, (q, a) == root)? {
                return Ok(Some(v));
            }
            if let Some(b) = bit {
                self.clean.insert(b);
            }
        }
        Ok(None)
    }

    /// The first violating configuration of pair `(q, a)`, if any.
    fn violation_at(
        &mut self,
        q: StateId,
        a: usize,
        is_root: bool,
    ) -> Result<Option<Violation>, TypecheckError> {
        // States whose compositions the checks need.
        let mut needed: Vec<StateId> = Vec::new();
        let mut any_check = false;
        for (_, items) in self.check_items(q, a, is_root) {
            any_check = true;
            for item in items {
                if let TopItem::St(p) = item {
                    if !needed.contains(p) {
                        needed.push(*p);
                    }
                }
            }
        }
        if !any_check {
            return Ok(None);
        }
        needed.sort_unstable();
        // The fixpoint's walk for `(a, needed)` is reused verbatim when
        // the tracked sets coincide (and extended from wherever it
        // stopped when they do not) — reachable pairs sharing a symbol
        // no longer re-explore the walk per pair.
        let walk = self.explore(a, &needed)?;
        let mut found = None;
        'nodes: for &node in &walk.accepting {
            let hvec = walk.hvec_of(node);
            for (start, items) in self.check_items(q, a, is_root) {
                let mut x = start;
                for item in items {
                    x = match item {
                        TopItem::Beh(b) => self.behaviors.apply(*b, x),
                        TopItem::St(p) => {
                            let pos = needed.iter().position(|y| y == p).expect("tracked");
                            self.behaviors.apply(hvec[pos], x)
                        }
                    };
                    if x == DEAD {
                        break;
                    }
                }
                if x == DEAD || !self.out.is_final(x) {
                    found = Some(Violation {
                        pair: (q, a),
                        children: walk.path_to(node),
                    });
                    break 'nodes;
                }
            }
        }
        self.put_walk(a, &needed, walk);
        Ok(found)
    }

    /// The checks of pair `(q, a)` as `(start state, items)`:
    /// one per output element of the rule, then — for the root pair — the
    /// virtual root check that the output hedge's top string is exactly
    /// `s_dout`.
    fn check_items(
        &self,
        q: StateId,
        a: usize,
        is_root: bool,
    ) -> impl Iterator<Item = (u32, &[TopItem])> + '_ {
        let rule = self.checks.get(&(q, a)).map_or(&[][..], Vec::as_slice);
        let root = is_root.then(|| {
            let items = self.tops.get(&(q, a)).map_or(&[][..], Vec::as_slice);
            (self.out.root_initial(), items)
        });
        rule.iter()
            .map(|c| (c.start, c.items.as_slice()))
            .chain(root)
    }

    /// Expands the witness tree for `(symbol, profile)`.
    pub(crate) fn witness_tree(
        &self,
        a: usize,
        pid: ProfileId,
        budget: &mut usize,
    ) -> Result<xmlta_tree::Tree, TypecheckError> {
        if *budget == 0 {
            return Err(TypecheckError::ResourceLimit(
                "counterexample tree exceeds the expansion cap".into(),
            ));
        }
        *budget -= 1;
        let children = self
            .witness
            .get(&(a, pid))
            .cloned()
            .expect("realizable profile has a witness");
        let mut kids = Vec::with_capacity(children.len());
        for (c, p) in children {
            kids.push(self.witness_tree(c, p, budget)?);
        }
        Ok(xmlta_tree::Tree::node(Symbol::from_index(a), kids))
    }

    /// Builds the full counterexample tree for a violation.
    pub(crate) fn build_counterexample(
        &mut self,
        v: &Violation,
    ) -> Result<CounterExample, TypecheckError> {
        let mut budget = WITNESS_NODE_CAP;
        // The violating node's subtree.
        let mut kids = Vec::with_capacity(v.children.len());
        for &(c, p) in &v.children {
            kids.push(self.witness_tree(c, p, &mut budget)?);
        }
        let mut tree = xmlta_tree::Tree::node(Symbol::from_index(v.pair.1), kids);
        // Wrap in the context up to the root. The context word per step is
        // derived here, lazily — reachability itself only records adjacency.
        let mut cur = v.pair;
        while let Some(Some(step)) = self.reachable.get(&cur).cloned() {
            let (pq, pa) = step.parent;
            let (word, position) = self
                .word_with_child(pa, step.child)
                .expect("recorded reach step has a witness word");
            let mut children = Vec::with_capacity(word.len());
            for (i, &c) in word.iter().enumerate() {
                if i == position {
                    children.push(tree.clone());
                } else {
                    let sub = self
                        .din
                        .sample_tree_with(c, &self.productive)
                        .expect("productive sibling symbol has a sample");
                    children.push(sub);
                }
            }
            tree = xmlta_tree::Tree::node(Symbol::from_index(pa), children);
            cur = (pq, pa);
        }
        let output = self.t.apply(&tree);
        Ok(CounterExample {
            input: tree,
            output,
        })
    }
}

impl Lemma14Engine {
    /// The checks for `(q, a)` as `(start state, items)` pairs, including
    /// the virtual-root check when the pair is the root pair. Used by the
    /// almost-always analysis.
    pub(crate) fn checks_for(&self, q: StateId, a: usize) -> Vec<(u32, Vec<TopItem>)> {
        let mut out: Vec<(u32, Vec<TopItem>)> = self
            .checks
            .get(&(q, a))
            .map(|cs| cs.iter().map(|c| (c.start, c.items.clone())).collect())
            .unwrap_or_default();
        if (q, a) == (self.t.initial_state(), self.din_start) {
            let items = self.tops.get(&(q, a)).cloned().unwrap_or_default();
            out.push((self.out.root_initial(), items));
        }
        out
    }

    /// Public wrapper over [`Lemma14Engine::top_states_of`].
    pub(crate) fn top_states_public(&self, a: usize) -> Vec<StateId> {
        self.top_states_of(a)
    }

    /// Public wrapper over profile assembly.
    pub(crate) fn assemble_profile_public(
        &mut self,
        a: usize,
        needed: &[StateId],
        hvec: &[BehaviorId],
    ) -> Box<[BehaviorId]> {
        self.assemble_profile(a, needed, hvec)
    }

    /// Looks up an interned profile.
    pub(crate) fn lookup_profile(&self, p: &[BehaviorId]) -> Option<ProfileId> {
        self.profile_ids.get(p).copied()
    }
}

/// The walk structure: BFS over (DTD-DFA state, tracked compositions).
///
/// Composition vectors are interned once in `hvecs` and nodes refer to them
/// by id; the node index maps a packed `(DFA state << 32) | hvec id` key,
/// so neither lookups nor insertions hash or clone a vector.
#[derive(Default)]
pub(crate) struct Walk {
    /// Node → (DTD-DFA state, hvec id).
    pub(crate) nodes: Vec<(u32, u32)>,
    /// The hvec arena: tracked-composition vectors, interned.
    hvecs: Vec<Box<[BehaviorId]>>,
    hvec_ids: FxHashMap<Box<[BehaviorId]>, u32>,
    index: FxHashMap<u64, u32>,
    /// Parent pointer: (parent node, child symbol, child profile).
    pub(crate) parents: Vec<Option<(u32, usize, ProfileId)>>,
    pub(crate) accepting: Vec<u32>,
    /// Every walk edge `(from, to, child symbol, child profile)` — filled
    /// only by [`Lemma14Engine::explore_recording_edges`].
    pub(crate) edges: Vec<(u32, u32, usize, ProfileId)>,
    /// Per child symbol: how many of its realizable profiles every node of
    /// this walk has already seen (the incremental-extension watermark).
    consumed: Vec<usize>,
    /// Persistent `(hvec id << 32 | profile id) → hvec id` transition memo.
    step_memo: FxHashMap<u64, u32>,
    /// Prefix of [`Walk::accepting`] whose profiles the fixpoint already
    /// assembled and interned.
    accepting_done: usize,
}

impl Walk {
    /// Interns a tracked-composition vector, returning its dense id.
    fn intern_hvec(&mut self, h: Box<[BehaviorId]>) -> u32 {
        if let Some(&id) = self.hvec_ids.get(&h) {
            return id;
        }
        let id = self.hvecs.len() as u32;
        self.hvecs.push(h.clone());
        self.hvec_ids.insert(h, id);
        id
    }

    /// The id of node `(d, h)`, if it exists.
    fn node_id(&self, d: u32, h: u32) -> Option<u32> {
        self.index
            .get(&((u64::from(d) << 32) | u64::from(h)))
            .copied()
    }

    /// Adds the node `(d, h)` (must be fresh) and returns its id.
    fn intern_node(
        &mut self,
        d: u32,
        h: u32,
        accepting: bool,
        parent: Option<(u32, usize, ProfileId)>,
    ) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push((d, h));
        self.index.insert((u64::from(d) << 32) | u64::from(h), id);
        self.parents.push(parent);
        if accepting {
            self.accepting.push(id);
        }
        id
    }

    /// The tracked compositions at `node`.
    pub(crate) fn hvec_of(&self, node: u32) -> &[BehaviorId] {
        &self.hvecs[self.nodes[node as usize].1 as usize]
    }

    /// The children sequence labelling the path from the start to `node`.
    pub(crate) fn path_to(&self, node: u32) -> Vec<(usize, ProfileId)> {
        let mut out = Vec::new();
        let mut cur = node;
        while let Some((p, c, pid)) = self.parents[cur as usize] {
            out.push((c, pid));
            cur = p;
        }
        out.reverse();
        out
    }
}

/// *Productive* symbols computed from the materialized rule DFAs: `a` is
/// productive iff some finite tree rooted at `a` locally satisfies the DTD.
/// Same fixpoint as [`Dtd::productive_symbols`], but over the engine's DFA
/// vector — symbols without a rule hold an ε-only DFA, which the restricted
/// acceptance check classifies as productive leaves, and no rule has to be
/// re-converted from its regex form.
fn productive_from_dfas(din_dfas: &[Arc<Dfa>]) -> Vec<bool> {
    let sigma = din_dfas.len();
    let nfas: Vec<xmlta_automata::Nfa> = din_dfas.iter().map(|d| d.to_nfa()).collect();
    let mut productive = vec![false; sigma];
    loop {
        let mut changed = false;
        for (s, nfa) in nfas.iter().enumerate() {
            if productive[s] {
                continue;
            }
            if nfa.accepts_some_restricted(|l| productive[l as usize]) {
                productive[s] = true;
                changed = true;
            }
        }
        if !changed {
            return productive;
        }
    }
}

/// Builds the `TopItem` sequence for a hedge of rhs nodes: element roots
/// contribute their symbols (merged into behavior runs), states contribute
/// `St` items.
fn items_of_children(
    nodes: &[RhsNode],
    out: &OutputAutomaton,
    behaviors: &mut BehaviorTable,
) -> Vec<TopItem> {
    let mut items: Vec<TopItem> = Vec::new();
    let mut run: Vec<Symbol> = Vec::new();
    for n in nodes {
        match n {
            RhsNode::Elem(s, _) => run.push(*s),
            RhsNode::State(p) => {
                if !run.is_empty() {
                    let b = behaviors.of_string(out, &run);
                    items.push(TopItem::Beh(b));
                    run.clear();
                }
                items.push(TopItem::St(*p));
            }
            RhsNode::Select(_, _) => unreachable!("selectors were expanded"),
        }
    }
    if !run.is_empty() {
        let b = behaviors.of_string(out, &run);
        items.push(TopItem::Beh(b));
    }
    items
}

/// Collects one [`Check`] per element node of the rhs (the node's output
/// children string must satisfy the content model of its label).
fn collect_checks(
    nodes: &[RhsNode],
    out: &OutputAutomaton,
    behaviors: &mut BehaviorTable,
    acc: &mut Vec<Check>,
) {
    for n in nodes {
        if let RhsNode::Elem(s, children) = n {
            let items = items_of_children(children, out, behaviors);
            acc.push(Check {
                start: out.initial_of(*s),
                items,
            });
            collect_checks(children, out, behaviors, acc);
        }
    }
}

/// Typechecks a DTD instance with the Lemma 14 engine.
///
/// Complete for every deleting/copying transducer; polynomial for
/// `T^{C,K}_trac` over `DTD(DFA)` (Theorem 15). Non-DFA rule representations
/// are determinized first, which is where the `DTD(NFA)` PSPACE lower bound
/// bites.
pub fn typecheck_dtds(
    din: &Dtd,
    dout: &Dtd,
    t: &Transducer,
    alphabet_size: usize,
) -> Result<Outcome, TypecheckError> {
    let mut engine = Lemma14Engine::new(din, dout, t, alphabet_size)?;
    engine.run_fixpoint()?;
    engine.compute_reachable();
    engine.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlta_base::Alphabet;
    use xmlta_transducer::examples;
    use xmlta_transducer::TransducerBuilder;

    fn check(din: &Dtd, dout: &Dtd, t: &Transducer, sigma: usize) -> Outcome {
        let outcome = typecheck_dtds(din, dout, t, sigma).expect("engine runs");
        // Counterexamples must really be counterexamples.
        if let Outcome::CounterExample(ce) = &outcome {
            assert!(
                din.compile_to_dfas().accepts(&ce.input),
                "counterexample input not in L(d_in)"
            );
            let ok = match &ce.output {
                Some(tree) => dout.compile_to_dfas().accepts(tree),
                None => false,
            };
            assert!(!ok, "counterexample output satisfies d_out");
        }
        outcome
    }

    #[test]
    fn example10_toc_typechecks_against_generated_schema() {
        let mut a = Alphabet::new();
        let din = examples::example10_dtd(&mut a);
        let t = examples::example10_toc(&mut a);
        let dout = Dtd::parse("book -> title (chapter title*)*", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        assert!(outcome.type_checks(), "got {outcome:?}");
    }

    #[test]
    fn example10_toc_fails_against_strict_schema() {
        // A schema requiring at least one title per chapter group fails:
        // chapters may have zero sections... actually every chapter has a
        // title child, so `chapter title+` holds; force failure with
        // `chapter title` (exactly one).
        let mut a = Alphabet::new();
        let din = examples::example10_dtd(&mut a);
        let t = examples::example10_toc(&mut a);
        let dout = Dtd::parse("book -> title (chapter title)*", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        assert!(!outcome.type_checks());
    }

    #[test]
    fn example11_summary_typechecks() {
        // The paper's Example 11: the summary transducer typechecks against
        // the Example 11 output DTD.
        let mut a = Alphabet::new();
        let din = examples::example10_dtd(&mut a);
        let t = examples::example10_summary(&mut a);
        let dout = examples::example11_output_dtd(&mut a);
        let outcome = check(&din, &dout, &t, a.len());
        assert!(outcome.type_checks(), "got {outcome:?}");
    }

    #[test]
    fn wrong_root_symbol_detected() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "wrong(q)")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        assert!(!outcome.type_checks());
    }

    #[test]
    fn missing_root_rule_is_counterexample() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "x", "r") // no rule for (q, r)!
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        assert!(!outcome.type_checks());
    }

    #[test]
    fn deleting_transducer_depth_collapse() {
        // Input: unary chains r(x(x(...))) of any depth; transducer deletes
        // all x's; output must then be a bare r.
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x?\nx -> x?", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "del"])
            .rule("root", "r", "r(del)")
            .rule("del", "x", "del")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        assert!(outcome.type_checks(), "got {outcome:?}");
    }

    #[test]
    fn deletion_flattens_into_siblings() {
        // Deleting x turns r(x(y y)) into r(y y): output schema y* works,
        // exactly-one-y fails.
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x\nx -> y y*\ny -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "del", "copy"])
            .rule("root", "r", "r(del)")
            .rule("del", "x", "del copy")
            .rule("copy", "y", "y")
            .build()
            .unwrap();
        // del on x deletes (children of x are y's, no rules for (del, y) →
        // ε) and copy emits the y's... wait: rhs `del copy` on x processes
        // x's children twice: del→ε each, copy→y each. Output r(y…y).
        let dout_ok = Dtd::parse("r -> y*", &mut a).unwrap();
        assert!(check(&din, &dout_ok, &t, a.len()).type_checks());
        let dout_one = Dtd::parse("r -> y", &mut a).unwrap();
        let outcome = check(&din, &dout_one, &t, a.len());
        assert!(!outcome.type_checks(), "two y's possible");
    }

    #[test]
    fn copying_doubles_content() {
        // T copies children twice under one node.
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> y\ny -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "c"])
            .rule("root", "r", "r(c c)")
            .rule("c", "y", "y")
            .build()
            .unwrap();
        let dout_two = Dtd::parse("r -> y y", &mut a).unwrap();
        assert!(check(&din, &dout_two, &t, a.len()).type_checks());
        let dout_one = Dtd::parse("r -> y", &mut a).unwrap();
        assert!(!check(&din, &dout_one, &t, a.len()).type_checks());
    }

    #[test]
    fn empty_input_language_vacuously_typechecks() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> r", &mut a).unwrap(); // empty
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "oops(q)")
            .build()
            .unwrap();
        let dout = Dtd::parse("good -> ", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        assert!(outcome.type_checks());
    }

    #[test]
    fn nested_output_nodes_checked() {
        // The rhs has a nested node whose content model is violated.
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "r(good(bad))")
            .build()
            .unwrap();
        // good must be a leaf.
        let dout = Dtd::parse("r -> good\ngood -> ", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        assert!(!outcome.type_checks());
    }

    /// Drives the engine the way the incremental service path does.
    fn outcome_of(engine: &mut Lemma14Engine) -> Outcome {
        engine.run_fixpoint().expect("fixpoint");
        engine.compute_reachable();
        engine.outcome().expect("outcome")
    }

    fn edit_and_check(engine: &mut Lemma14Engine, t_new: &Transducer) -> Outcome {
        let seeds = engine.apply_transducer_edit(t_new).expect("edit applies");
        engine.run_fixpoint_seeded(&seeds).expect("seeded fixpoint");
        engine.compute_reachable();
        engine.outcome().expect("outcome")
    }

    #[test]
    fn incremental_edit_flips_verdict_and_matches_scratch() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x x\nx -> ", &mut a).unwrap();
        let t1 = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> y y\ny -> ", &mut a).unwrap();
        let mut engine = Lemma14Engine::new(&din, &dout, &t1, a.len()).unwrap();
        assert!(outcome_of(&mut engine).type_checks());
        // Edit: q doubles its output — r(y y y y) violates `r -> y y`.
        let t2 = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .rule("q", "x", "y y")
            .build()
            .unwrap();
        let inc = edit_and_check(&mut engine, &t2);
        assert!(!inc.type_checks());
        assert_eq!(
            inc.type_checks(),
            typecheck_dtds(&din, &dout, &t2, a.len())
                .unwrap()
                .type_checks()
        );
        // Edit back: verdict flips back to TypeChecks.
        let inc = edit_and_check(&mut engine, &t1);
        assert!(inc.type_checks());
    }

    #[test]
    fn incremental_edit_retains_untouched_walks() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> s1 s2\ns1 -> u*\ns2 -> v*\nu -> \nv -> ", &mut a).unwrap();
        let build = |a: &mut Alphabet, u_rhs: &str| {
            TransducerBuilder::new(a)
                .states(&["root", "p", "w"])
                .rule("root", "r", "r(p)")
                .rule("p", "s1", "a1(w)")
                .rule("p", "s2", "a2(w)")
                .rule("w", "u", u_rhs)
                .rule("w", "v", "k")
                .build()
                .unwrap()
        };
        let t1 = build(&mut a, "k");
        let dout = Dtd::parse("r -> a1 a2\na1 -> k*\na2 -> k*\nk -> ", &mut a).unwrap();
        let mut engine = Lemma14Engine::new(&din, &dout, &t1, a.len()).unwrap();
        assert!(outcome_of(&mut engine).type_checks());
        let walks_before = engine.retained_walks();
        assert!(walks_before > 0);
        // Edit only (w, u): the ancestor closure is {u, s1, r} — the walks
        // for s2 and v must survive the invalidation.
        let t2 = build(&mut a, "k k");
        let seeds = engine.apply_transducer_edit(&t2).expect("edit applies");
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        let mut expected: Vec<usize> = ["u", "s1", "r"]
            .iter()
            .map(|n| a.lookup(n).unwrap().index())
            .collect();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
        assert!(
            engine.retained_walks() > 0,
            "untouched walks must be retained"
        );
        engine.run_fixpoint_seeded(&seeds).unwrap();
        engine.compute_reachable();
        assert!(engine.outcome().unwrap().type_checks());
        let scratch = typecheck_dtds(&din, &dout, &t2, a.len()).unwrap();
        assert!(scratch.type_checks());
        // And a verdict-flipping edit on the same component.
        let t3 = build(&mut a, "a1");
        let inc = edit_and_check(&mut engine, &t3);
        assert!(!inc.type_checks());
        assert!(!typecheck_dtds(&din, &dout, &t3, a.len())
            .unwrap()
            .type_checks());
    }

    #[test]
    fn incremental_edit_rule_add_and_remove() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x?\nx -> ", &mut a).unwrap();
        let t1 = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> y?\ny -> ", &mut a).unwrap();
        let mut engine = Lemma14Engine::new(&din, &dout, &t1, a.len()).unwrap();
        // No rule for (q, x): x maps to ε; r() is fine.
        assert!(outcome_of(&mut engine).type_checks());
        // Add (q, x) -> y y: r(y y) violates `r -> y?`.
        let t2 = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .rule("q", "x", "y y")
            .build()
            .unwrap();
        assert!(!edit_and_check(&mut engine, &t2).type_checks());
        // Remove it again.
        assert!(edit_and_check(&mut engine, &t1).type_checks());
    }

    #[test]
    fn incremental_edit_rejects_state_space_and_alphabet_growth() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> ", &mut a).unwrap();
        let t1 = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "r")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        let mut engine = Lemma14Engine::new(&din, &dout, &t1, a.len()).unwrap();
        assert!(outcome_of(&mut engine).type_checks());
        let t_more_states = TransducerBuilder::new(&mut a)
            .states(&["q", "q2"])
            .rule("q", "r", "r")
            .build()
            .unwrap();
        assert!(engine.apply_transducer_edit(&t_more_states).is_err());
        let t_new_symbol = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "brand_new_symbol")
            .build()
            .unwrap();
        assert!(engine.apply_transducer_edit(&t_new_symbol).is_err());
        // The engine is still intact after the rejections.
        assert!(outcome_of(&mut engine).type_checks());
    }

    /// A splitmix64 step: the randomized tests' seedable source.
    fn next_rand(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<'a>(rng: &mut u64, from: &[&'a str]) -> &'a str {
        from[(next_rand(rng) % from.len() as u64) as usize]
    }

    #[test]
    fn retained_verdict_equals_fresh_verdict_on_random_edits() {
        // A recursive input DTD (`c` re-enters `a`), so edits below the
        // root reach the root through several parent chains.
        let mut a = Alphabet::new();
        let din = Dtd::parse(
            "r -> a* b?\na -> x* c?\nb -> y y*\nc -> a? x\nx -> \ny -> ",
            &mut a,
        )
        .unwrap();
        let dout = Dtd::parse(
            "r -> (a | b | x)*\na -> x* y? c?\nb -> y*\nc -> (a | x)*\nx -> \ny -> ",
            &mut a,
        )
        .unwrap();
        const STATES: &[&str] = &["root", "p", "q"];
        const SYMBOLS: &[&str] = &["a", "b", "c", "x", "y"];
        // Rhs shapes: with and without states (so pairs below become
        // reachable and unreachable), passing and violating outputs.
        const RHS: &[&str] = &[
            "x", "y", "x x", "y y", "a(q)", "a(p)", "b(q)", "c(p)", "c(q q)", "p", "q", "p q",
            "x(q)", "a(x y)", "b(p x)",
        ];
        const ROOT_RHS: &[&str] = &["r(p)", "r(p q)", "r(q)", "r", "r(p p)", "x", "p"];
        let sigma = a.len();
        type Rules = std::collections::BTreeMap<(String, String), String>;
        let build = |a: &mut Alphabet, rules: &Rules| {
            let mut b = TransducerBuilder::new(a).states(STATES);
            for ((q, s), rhs) in rules {
                b = b.rule(q, s, rhs);
            }
            b.build().unwrap()
        };
        let mut verdicts = [0usize; 2];
        for seed in 0..24u64 {
            let mut rng = seed;
            let mut rules = Rules::new();
            rules.insert(("root".to_string(), "r".to_string()), "r(p)".to_string());
            rules.insert(("p".to_string(), "a".to_string()), "a(q)".to_string());
            rules.insert(("q".to_string(), "x".to_string()), "x".to_string());
            let t0 = build(&mut a, &rules);
            let mut engine = Lemma14Engine::new(&din, &dout, &t0, sigma).unwrap();
            let fresh = typecheck_dtds(&din, &dout, &t0, sigma).unwrap();
            assert_eq!(outcome_of(&mut engine).type_checks(), fresh.type_checks());
            for step in 0..40 {
                match next_rand(&mut rng) % 10 {
                    0..=5 => {
                        let q = pick(&mut rng, &STATES[1..]);
                        let s = pick(&mut rng, SYMBOLS);
                        let rhs = pick(&mut rng, RHS);
                        rules.insert((q.to_string(), s.to_string()), rhs.to_string());
                    }
                    6 | 7 => {
                        let keys: Vec<_> =
                            rules.keys().filter(|(q, _)| q != "root").cloned().collect();
                        if !keys.is_empty() {
                            let k = &keys[(next_rand(&mut rng) % keys.len() as u64) as usize];
                            rules.remove(&k.clone());
                        }
                    }
                    8 => {
                        let rhs = pick(&mut rng, ROOT_RHS);
                        rules.insert(("root".to_string(), "r".to_string()), rhs.to_string());
                    }
                    _ => {
                        rules.remove(&("root".to_string(), "r".to_string()));
                    }
                }
                let t = build(&mut a, &rules);
                let seeds = engine.apply_transducer_edit(&t).expect("edit applies");
                engine.run_fixpoint_seeded(&seeds).expect("seeded fixpoint");
                engine.compute_reachable();
                let retained = engine.type_checks().expect("verdict");
                let fresh = typecheck_dtds(&din, &dout, &t, sigma).expect("fresh check");
                assert_eq!(
                    retained,
                    fresh.type_checks(),
                    "seed {seed} step {step}: retained verdict differs from fresh for {rules:?}"
                );
                verdicts[usize::from(retained)] += 1;
                // The retained engine's own witness, when it fails, is a
                // real counterexample.
                if !retained {
                    let ce = engine.outcome().expect("outcome");
                    let ce = ce
                        .counter_example()
                        .expect("a failing verdict has a witness");
                    assert!(din.compile_to_dfas().accepts(&ce.input));
                    let ok = ce
                        .output
                        .as_ref()
                        .is_some_and(|o| dout.compile_to_dfas().accepts(o));
                    assert!(!ok, "seed {seed} step {step}: witness output is valid");
                }
            }
        }
        assert!(
            verdicts.iter().all(|&n| n >= 100),
            "both verdicts are exercised: {verdicts:?}"
        );
    }

    #[test]
    fn counterexample_is_minimal_ish() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        // Transducer emits one y per x; output allows at most zero y's.
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        let ce = outcome.counter_example().expect("fails");
        // Smallest counterexample is r(x).
        assert_eq!(ce.input.num_nodes(), 2);
    }
}
