//! The tree transducer type, builder, and semantics (Definition 5).

use crate::rhs::{Rhs, RhsNode, StateId};
use std::sync::Arc;
use xmlta_automata::Dfa;
use xmlta_base::{Alphabet, FxHashMap, Symbol};
use xmlta_tree::{Hedge, Tree, TreePath};
use xmlta_xpath::{eval, parser, Pattern};

/// A node selector attached to a state in a right-hand side (Section 4).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Selector {
    /// An XPath pattern `·/φ` or `·//φ`.
    XPath(Pattern),
    /// A DFA selecting each descendant whose path label string (from the
    /// context node's child down to the node, inclusive) it accepts.
    Dfa(Dfa),
}

/// A deterministic top–down tree transducer `T = (Q, Σ, q₀, R)`.
///
/// Build one with [`TransducerBuilder`]; determinism (at most one rule per
/// `(q, a)` pair) and the initial-state rhs restriction (`T_Σ(Q) \ Q`) are
/// enforced at construction.
///
/// Rules are shared by `Arc`: a clone, or a copy edited with
/// [`Transducer::with_rule`]/[`Transducer::without_rule`], shares every
/// rule it does not replace, so an edit costs its one rule, not the whole
/// rule set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transducer {
    state_names: Vec<String>,
    initial: StateId,
    rules: FxHashMap<(StateId, Symbol), Arc<Rhs>>,
    selectors: Vec<Selector>,
    alphabet_size: usize,
}

impl Transducer {
    /// Number of states `|Q|`.
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// The initial state `q₀`.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// State names (for display / XSLT modes).
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// Resolves a state name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as StateId)
    }

    /// The rule `rhs(q, a)`, if present.
    pub fn rule(&self, q: StateId, a: Symbol) -> Option<&Rhs> {
        self.rules.get(&(q, a)).map(|rhs| &**rhs)
    }

    /// Iterates over all rules.
    pub fn rules(&self) -> impl Iterator<Item = (StateId, Symbol, &Rhs)> {
        self.rules.iter().map(|(&(q, a), rhs)| (q, a, &**rhs))
    }

    /// All rules in `(state, symbol)` order — the canonical iteration for
    /// anything that must be deterministic across equal transducers
    /// (printing, encoding, fingerprints).
    pub fn sorted_rules(&self) -> Vec<(StateId, Symbol, &Rhs)> {
        let mut rules: Vec<_> = self.rules().collect();
        // Map keys are distinct, so the unstable sort is deterministic.
        rules.sort_unstable_by_key(|&(q, a, _)| (q, a));
        rules
    }

    /// The interned selectors.
    pub fn selectors(&self) -> &[Selector] {
        &self.selectors
    }

    /// The selector with index `i`.
    pub fn selector(&self, i: u32) -> &Selector {
        &self.selectors[i as usize]
    }

    /// Whether any rule uses selectors (i.e. the transducer is in `T^P` or
    /// `T^DFA` rather than the plain class).
    pub fn uses_selectors(&self) -> bool {
        self.rules.values().any(|r| r.has_selectors())
    }

    /// The alphabet size the transducer is defined over.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// Grows the alphabet to at least `n` symbols (new symbols get no
    /// rules); DFA selectors are widened to the grown alphabet.
    pub fn grow_alphabet(&mut self, n: usize) {
        self.alphabet_size = self.alphabet_size.max(n);
        for sel in &mut self.selectors {
            if let Selector::Dfa(dfa) = sel {
                dfa.grow_alphabet(self.alphabet_size);
            }
        }
    }

    /// Renumbers the selector table the way [`TransducerBuilder`] numbers
    /// it when given this transducer's DFA selectors and then its rules in
    /// `(state, symbol)` order: the DFA selectors first, in their current
    /// order, then one XPath selector per use site, in rule order and rhs
    /// preorder. XPath selectors no rule uses are dropped. Only rules whose
    /// selector ids change are replaced.
    pub fn compact_selectors(&mut self) {
        if self.selectors.is_empty() {
            return;
        }
        let mut dfa_ids: Vec<Option<u32>> = vec![None; self.selectors.len()];
        let mut selectors: Vec<Selector> = Vec::new();
        for (i, sel) in self.selectors.iter().enumerate() {
            if let Selector::Dfa(_) = sel {
                dfa_ids[i] = Some(selectors.len() as u32);
                selectors.push(sel.clone());
            }
        }
        fn renumber(
            nodes: &mut [RhsNode],
            old: &[Selector],
            dfa_ids: &[Option<u32>],
            selectors: &mut Vec<Selector>,
        ) {
            for node in nodes {
                match node {
                    RhsNode::Elem(_, children) => renumber(children, old, dfa_ids, selectors),
                    RhsNode::State(_) => {}
                    RhsNode::Select(_, sel) => {
                        *sel = dfa_ids[*sel as usize].unwrap_or_else(|| {
                            selectors.push(old[*sel as usize].clone());
                            (selectors.len() - 1) as u32
                        });
                    }
                }
            }
        }
        let mut keys: Vec<(StateId, Symbol)> = self.rules.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let rhs = &self.rules[&key];
            if !rhs.has_selectors() {
                continue;
            }
            let mut nodes = rhs.nodes.clone();
            renumber(&mut nodes, &self.selectors, &dfa_ids, &mut selectors);
            if nodes != rhs.nodes {
                self.rules.insert(key, Arc::new(Rhs::new(nodes)));
            }
        }
        self.selectors = selectors;
    }

    /// The paper's size measure `|Q| + |Σ| + Σ |rhs(q, a)|`.
    pub fn size(&self) -> usize {
        self.num_states()
            + self.alphabet_size
            + self.rules.values().map(|r| r.size()).sum::<usize>()
    }

    /// The translation `T^q(t)` of Definition 5 (extended with selectors as
    /// in Section 4): a hedge.
    pub fn apply_state(&self, q: StateId, t: &Tree) -> Hedge {
        let Some(rhs) = self.rules.get(&(q, t.label)) else {
            return Vec::new(); // no rule ⇒ ε
        };
        let mut out = Vec::new();
        for node in &rhs.nodes {
            self.expand(node, t, &mut out);
        }
        out
    }

    fn expand(&self, node: &RhsNode, t: &Tree, out: &mut Hedge) {
        match node {
            RhsNode::Elem(sym, children) => {
                let mut kids = Vec::new();
                for c in children {
                    self.expand(c, t, &mut kids);
                }
                out.push(Tree::node(*sym, kids));
            }
            RhsNode::State(p) => {
                for child in &t.children {
                    out.extend(self.apply_state(*p, child));
                }
            }
            RhsNode::Select(p, sel) => {
                for path in self.select(*sel, t) {
                    let sub = t.subtree(&path).expect("selector returned valid path");
                    out.extend(self.apply_state(*p, sub));
                }
            }
        }
    }

    /// Evaluates selector `sel` on `t` with the root as context node,
    /// returning selected paths in document order.
    pub fn select(&self, sel: u32, t: &Tree) -> Vec<TreePath> {
        match &self.selectors[sel as usize] {
            Selector::XPath(p) => eval::select(p, t),
            Selector::Dfa(d) => select_by_dfa(d, t),
        }
    }

    /// The transformation `T(t) = T^{q₀}(t)` interpreted as a tree; `None`
    /// when the output is not a single tree (the empty hedge ε, or a hedge
    /// of several trees). Neither is ever a valid member of an output
    /// schema, since schemas demand a single root.
    ///
    /// Definition 5 syntactically restricts initial-state right-hand sides
    /// to `T_Σ(Q) \ Q` so that this cannot happen; the paper's own
    /// Example 10 violates that restriction on symbols that never occur at
    /// the root, so we enforce it *semantically* here (and expose
    /// [`Transducer::initial_rhs_violations`] for the typechecker, which
    /// must treat a reachable non-tree output as a type error).
    pub fn apply(&self, t: &Tree) -> Option<Tree> {
        let h = self.apply_state(self.initial, t);
        Tree::from_hedge(h)
    }

    /// Symbols `a` for which `rhs(q₀, a)` is not a single Σ-rooted tree —
    /// i.e. inputs rooted at `a` may produce a non-tree output.
    pub fn initial_rhs_violations(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self
            .rules
            .iter()
            .filter(|((q, _), rhs)| *q == self.initial && !rhs.is_rooted_tree())
            .map(|((_, a), _)| *a)
            .collect();
        out.sort_unstable();
        out
    }

    /// Direct construction from parts (used by the Theorem 23/29
    /// translations and the random generators). Performs the same
    /// determinism/initial-rhs checks as the builder.
    pub fn from_parts(
        state_names: Vec<String>,
        initial: StateId,
        rules: Vec<((StateId, Symbol), Rhs)>,
        selectors: Vec<Selector>,
        alphabet_size: usize,
    ) -> Result<Transducer, BuildError> {
        let mut map = FxHashMap::default();
        for ((q, a), rhs) in rules {
            if map.insert((q, a), Arc::new(rhs)).is_some() {
                return Err(BuildError::DuplicateRule(
                    state_names
                        .get(q as usize)
                        .cloned()
                        .unwrap_or_else(|| format!("q{q}")),
                    format!("symbol #{}", a.0),
                ));
            }
        }
        if state_names.is_empty() {
            return Err(BuildError::NoStates);
        }
        Ok(Transducer {
            state_names,
            initial,
            rules: map,
            selectors,
            alphabet_size,
        })
    }

    /// A copy of this transducer with the rule `(state, symbol) → rhs_src`
    /// set (added or replaced). The rhs is parsed with the standard rule
    /// grammar; inline XPath selectors are appended to the selector table
    /// (a replaced rule's selectors stay in it until
    /// [`Transducer::compact_selectors`]), but named `$dfa` selector
    /// references cannot be resolved here (builder names are not retained)
    /// and surface as [`BuildError::UnknownState`].
    /// The state space is unchanged — the edit primitive of the incremental
    /// `update` path, which requires a stable state space.
    pub fn with_rule(
        &self,
        state: &str,
        symbol: &str,
        rhs_src: &str,
        alphabet: &mut Alphabet,
    ) -> Result<Transducer, BuildError> {
        let q = self
            .state_by_name(state)
            .ok_or_else(|| BuildError::UnknownState(state.to_string()))?;
        let a = alphabet.intern(symbol);
        let mut selectors = self.selectors.clone();
        let rhs = parse_rhs(rhs_src, alphabet, &self.state_names, &[], &mut selectors)?;
        let mut rules = self.rules.clone();
        rules.insert((q, a), Arc::new(rhs));
        Ok(Transducer {
            state_names: self.state_names.clone(),
            initial: self.initial,
            rules,
            selectors,
            alphabet_size: alphabet.len().max(self.alphabet_size),
        })
    }

    /// A copy of this transducer with the rule for `(state, symbol)` removed
    /// (the pair then translates to ε). Errors if the rule does not exist,
    /// so a typo cannot silently no-op.
    pub fn without_rule(&self, state: &str, symbol: Symbol) -> Result<Transducer, BuildError> {
        let q = self
            .state_by_name(state)
            .ok_or_else(|| BuildError::UnknownState(state.to_string()))?;
        let mut rules = self.rules.clone();
        if rules.remove(&(q, symbol)).is_none() {
            return Err(BuildError::RhsSyntax(format!(
                "no rule for ({state}, symbol #{}) to remove",
                symbol.0
            )));
        }
        Ok(Transducer {
            state_names: self.state_names.clone(),
            initial: self.initial,
            rules,
            selectors: self.selectors.clone(),
            alphabet_size: self.alphabet_size,
        })
    }
}

/// DFA selector semantics: selects each strict descendant `v` such that the
/// DFA accepts the string of labels on the path from the context node's
/// child down to `v` (inclusive). ε-acceptance is ignored — patterns never
/// select the context node (Section 4).
fn select_by_dfa(dfa: &Dfa, t: &Tree) -> Vec<TreePath> {
    let mut out = Vec::new();
    // DFS in document order carrying the DFA state.
    fn go(dfa: &Dfa, t: &Tree, path: &TreePath, state: u32, out: &mut Vec<TreePath>) {
        for (i, child) in t.children.iter().enumerate() {
            let cpath = path.child(i as u32);
            if let Some(next) = dfa.step(state, child.label.0) {
                if dfa.is_final_state(next) {
                    out.push(cpath.clone());
                }
                go(dfa, child, &cpath, next, out);
            }
        }
    }
    go(dfa, t, &TreePath::root(), dfa.initial_state(), &mut out);
    out
}

/// Errors raised while building a transducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two rules for the same `(state, symbol)` pair.
    DuplicateRule(String, String),
    /// Unknown state name in an rhs.
    UnknownState(String),
    /// Syntax error in an rhs.
    RhsSyntax(String),
    /// The transducer has no states.
    NoStates,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::DuplicateRule(q, a) => write!(f, "duplicate rule for ({q}, {a})"),
            BuildError::UnknownState(s) => write!(f, "unknown state `{s}` in rhs"),
            BuildError::RhsSyntax(m) => write!(f, "rhs syntax error: {m}"),
            BuildError::NoStates => write!(f, "transducer needs at least one state"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Transducer`].
///
/// States are declared by name (the first becomes the initial state unless
/// [`TransducerBuilder::initial`] is called); rules are written in the
/// paper's concrete syntax, with state names standing for state leaves and
/// `<state, xpath>` for state–pattern pairs:
///
/// ```text
/// (q, book)    -> book(q)          // builder.rule("q", "book", "book(q)")
/// (q, chapter) -> chapter q        // builder.rule("q", "chapter", "chapter q")
/// (q, chapter) -> chapter <q, .//title>
/// ```
pub struct TransducerBuilder<'a> {
    alphabet: &'a mut Alphabet,
    state_names: Vec<String>,
    initial: Option<String>,
    rules: Vec<(String, String, String)>,
    dfa_selectors: Vec<Dfa>,
    dfa_selector_names: Vec<String>,
}

impl<'a> TransducerBuilder<'a> {
    /// Creates a builder interning element names into `alphabet`.
    pub fn new(alphabet: &'a mut Alphabet) -> Self {
        TransducerBuilder {
            alphabet,
            state_names: Vec::new(),
            initial: None,
            rules: Vec::new(),
            dfa_selectors: Vec::new(),
            dfa_selector_names: Vec::new(),
        }
    }

    /// Declares states (idempotent).
    pub fn states(mut self, names: &[&str]) -> Self {
        for n in names {
            if !self.state_names.iter().any(|s| s == n) {
                self.state_names.push((*n).to_string());
            }
        }
        self
    }

    /// Sets the initial state (defaults to the first declared).
    pub fn initial(mut self, name: &str) -> Self {
        self.initial = Some(name.to_string());
        self
    }

    /// Adds the rule `(state, symbol) → rhs`.
    pub fn rule(mut self, state: &str, symbol: &str, rhs: &str) -> Self {
        self.rules
            .push((state.to_string(), symbol.to_string(), rhs.to_string()));
        self
    }

    /// Registers a DFA selector under `name`; rhs syntax `<state, $name>`
    /// references it.
    pub fn dfa_selector(mut self, name: &str, dfa: Dfa) -> Self {
        self.dfa_selector_names.push(name.to_string());
        self.dfa_selectors.push(dfa);
        self
    }

    /// Finishes construction, checking determinism and the initial-state
    /// rhs restriction.
    pub fn build(self) -> Result<Transducer, BuildError> {
        let TransducerBuilder {
            alphabet,
            state_names,
            initial,
            rules,
            dfa_selectors,
            dfa_selector_names,
        } = self;
        if state_names.is_empty() {
            return Err(BuildError::NoStates);
        }
        let initial_name = initial.unwrap_or_else(|| state_names[0].clone());
        let initial = state_names
            .iter()
            .position(|n| *n == initial_name)
            .ok_or_else(|| BuildError::UnknownState(initial_name.clone()))?
            as StateId;

        let mut selectors: Vec<Selector> = dfa_selectors.into_iter().map(Selector::Dfa).collect();
        let mut t = Transducer {
            state_names: state_names.clone(),
            initial,
            rules: FxHashMap::default(),
            selectors: Vec::new(),
            alphabet_size: alphabet.len(),
        };

        for (state, symbol, rhs_src) in rules {
            let q = state_names
                .iter()
                .position(|n| *n == state)
                .ok_or_else(|| BuildError::UnknownState(state.clone()))?
                as StateId;
            let sym = alphabet.intern(&symbol);
            let rhs = parse_rhs(
                &rhs_src,
                alphabet,
                &state_names,
                &dfa_selector_names,
                &mut selectors,
            )?;
            if t.rules.insert((q, sym), Arc::new(rhs)).is_some() {
                return Err(BuildError::DuplicateRule(state, symbol));
            }
        }
        t.selectors = selectors;
        t.alphabet_size = alphabet.len();
        Ok(t)
    }
}

/// Parses an rhs in the concrete syntax.
fn parse_rhs(
    src: &str,
    alphabet: &mut Alphabet,
    state_names: &[String],
    dfa_selector_names: &[String],
    selectors: &mut Vec<Selector>,
) -> Result<Rhs, BuildError> {
    struct P<'x> {
        src: &'x str,
        pos: usize,
    }
    impl P<'_> {
        fn rest(&self) -> &str {
            &self.src[self.pos..]
        }
        fn skip_ws(&mut self) {
            let r = self.rest();
            let t = r.trim_start();
            self.pos += r.len() - t.len();
        }
        fn peek(&self) -> Option<char> {
            self.rest().chars().next()
        }
    }

    fn name_char(c: char) -> bool {
        c.is_alphanumeric() || matches!(c, '_' | '#' | '$' | '-' | '\'')
    }

    fn items(
        p: &mut P<'_>,
        alphabet: &mut Alphabet,
        state_names: &[String],
        dfa_selector_names: &[String],
        selectors: &mut Vec<Selector>,
    ) -> Result<Vec<RhsNode>, BuildError> {
        let mut out = Vec::new();
        loop {
            p.skip_ws();
            match p.peek() {
                Some('<') => {
                    p.pos += 1;
                    p.skip_ws();
                    let start = p.pos;
                    while p.peek().is_some_and(name_char) {
                        p.pos += p.peek().expect("peeked").len_utf8();
                    }
                    let state = p.src[start..p.pos].to_string();
                    let q = state_names
                        .iter()
                        .position(|n| *n == state)
                        .ok_or_else(|| BuildError::UnknownState(state.clone()))?
                        as StateId;
                    p.skip_ws();
                    if p.peek() != Some(',') {
                        return Err(BuildError::RhsSyntax(format!(
                            "expected `,` after state in selector pair near `{}`",
                            p.rest()
                        )));
                    }
                    p.pos += 1;
                    p.skip_ws();
                    // Either `$name` (registered DFA selector) or an XPath.
                    let end = p.rest().find('>').ok_or_else(|| {
                        BuildError::RhsSyntax("unterminated selector pair (missing `>`)".into())
                    })?;
                    let sel_src = p.rest()[..end].trim().to_string();
                    p.pos += end + 1;
                    let sel_id = if let Some(dfa_name) = sel_src.strip_prefix('$') {
                        let idx = dfa_selector_names
                            .iter()
                            .position(|n| n == dfa_name)
                            .ok_or_else(|| BuildError::UnknownState(sel_src.clone()))?;
                        idx as u32
                    } else {
                        let pat = parser::parse_pattern(&sel_src, alphabet)
                            .map_err(|e| BuildError::RhsSyntax(e.to_string()))?;
                        selectors.push(Selector::XPath(pat));
                        (selectors.len() - 1) as u32
                    };
                    out.push(RhsNode::Select(q, sel_id));
                }
                Some(c) if name_char(c) => {
                    let start = p.pos;
                    while p.peek().is_some_and(name_char) {
                        p.pos += p.peek().expect("peeked").len_utf8();
                    }
                    let name = p.src[start..p.pos].to_string();
                    p.skip_ws();
                    let has_children = p.peek() == Some('(');
                    if let Some(q) = state_names.iter().position(|n| *n == name) {
                        if has_children {
                            return Err(BuildError::RhsSyntax(format!(
                                "state `{name}` cannot have children"
                            )));
                        }
                        out.push(RhsNode::State(q as StateId));
                    } else {
                        let sym = alphabet.intern(&name);
                        let children = if has_children {
                            p.pos += 1;
                            let cs =
                                items(p, alphabet, state_names, dfa_selector_names, selectors)?;
                            p.skip_ws();
                            if p.peek() != Some(')') {
                                return Err(BuildError::RhsSyntax("expected `)`".into()));
                            }
                            p.pos += 1;
                            cs
                        } else {
                            Vec::new()
                        };
                        out.push(RhsNode::Elem(sym, children));
                    }
                }
                _ => return Ok(out),
            }
        }
    }

    let mut p = P { src, pos: 0 };
    let nodes = items(&mut p, alphabet, state_names, dfa_selector_names, selectors)?;
    p.skip_ws();
    if !p.rest().is_empty() {
        return Err(BuildError::RhsSyntax(format!(
            "unexpected input `{}`",
            p.rest()
        )));
    }
    Ok(Rhs::new(nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlta_tree::parse_tree;

    /// The transducer of Example 6.
    fn example6(alphabet: &mut Alphabet) -> Transducer {
        TransducerBuilder::new(alphabet)
            .states(&["p", "q"])
            .rule("p", "a", "d(e)")
            .rule("p", "b", "d(q)")
            .rule("q", "a", "c p")
            .rule("q", "b", "c(p q)")
            .build()
            .expect("example 6 builds")
    }

    #[test]
    fn example6_builds_and_sizes() {
        let mut a = Alphabet::new();
        let t = example6(&mut a);
        assert_eq!(t.num_states(), 2);
        assert_eq!(t.rules().count(), 4);
        assert!(!t.uses_selectors());
    }

    #[test]
    fn example7_style_translation() {
        // In the style of Example 7 / Figure 2, worked out by hand:
        //   T^p(b(b(a b) a)) = d(T^q(b(a b)) T^q(a))
        //   T^q(b(a b))      = c(T^p(a) T^p(b) T^q(a) T^q(b)) = c(d(e) d c c)
        //   T^q(a)           = c
        // so the translation is d(c(d(e) d c c) c).
        let mut al = Alphabet::new();
        let t = example6(&mut al);
        let input = parse_tree("b(b(a b) a)", &mut al).unwrap();
        let output = t.apply(&input).expect("non-empty output");
        let expected = parse_tree("d(c(d(e) d c c) c)", &mut al).unwrap();
        assert_eq!(output, expected, "got {}", output.display(&al));
    }

    #[test]
    fn missing_rule_yields_epsilon() {
        let mut al = Alphabet::new();
        let t = example6(&mut al);
        let c = al.intern("c");
        // No rule for (p, c): output is ε.
        assert_eq!(t.apply(&Tree::leaf(c)), None);
    }

    #[test]
    fn deleting_rule_splices_children() {
        // (q, a) → c p on a(b): T^q(a(b)) = c d — "where d corresponds to b
        // and not to a" (Section 2.5).
        let mut al = Alphabet::new();
        let t = example6(&mut al);
        let q = t.state_by_name("q").unwrap();
        let input = parse_tree("a(b)", &mut al).unwrap();
        let out = t.apply_state(q, &input);
        let rendered = xmlta_tree::hedge::display_hedge(&out, &al);
        assert_eq!(rendered, "c d");
    }

    #[test]
    fn determinism_enforced() {
        let mut al = Alphabet::new();
        let err = TransducerBuilder::new(&mut al)
            .states(&["q"])
            .rule("q", "a", "b")
            .rule("q", "a", "c")
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::DuplicateRule(_, _)));
    }

    #[test]
    fn initial_rhs_violations_reported_and_non_tree_output_is_none() {
        // Definition 5 restricts initial-state rhs to Σ-rooted trees; the
        // paper's Example 10 breaks this on non-root symbols, so we report
        // violations instead of rejecting, and `apply` yields None when a
        // non-tree output actually materializes.
        let mut al = Alphabet::new();
        let t = TransducerBuilder::new(&mut al)
            .states(&["q"])
            .rule("q", "a", "b c")
            .rule("q", "r", "root(q)")
            .build()
            .unwrap();
        let viol = t.initial_rhs_violations();
        assert_eq!(viol, vec![al.sym("a")]);
        let two = Tree::leaf(al.sym("a"));
        assert_eq!(t.apply(&two), None); // hedge b c is not a tree
        let ok = parse_tree("r(a)", &mut al).unwrap();
        assert!(t.apply(&ok).is_some());
    }

    #[test]
    fn xpath_selector_rule() {
        // Example 22's chapter rule.
        let mut al = Alphabet::new();
        let t = TransducerBuilder::new(&mut al)
            .states(&["q"])
            .rule("q", "book", "book(q)")
            .rule("q", "chapter", "chapter <q, .//title>")
            .rule("q", "title", "title")
            .build()
            .unwrap();
        assert!(t.uses_selectors());
        let input = parse_tree(
            "book(chapter(title intro section(title paragraph section(title paragraph))))",
            &mut al,
        )
        .unwrap();
        let out = t.apply(&input).unwrap();
        let expected = parse_tree("book(chapter title title title)", &mut al).unwrap();
        assert_eq!(out, expected, "got {}", out.display(&al));
    }

    #[test]
    fn dfa_selector_rule() {
        // DFA selecting exactly the grandchildren (paths of length 2).
        let mut al = Alphabet::new();
        al.intern("r");
        al.intern("a");
        al.intern("x");
        let sigma = 3;
        let mut d = Dfa::new(sigma);
        let s1 = d.add_state();
        let s2 = d.add_state();
        for l in 0..sigma as u32 {
            d.set_transition(0, l, s1);
            d.set_transition(s1, l, s2);
        }
        d.set_final(s2);
        let t = TransducerBuilder::new(&mut al)
            .states(&["q", "p"])
            .dfa_selector("grand", d)
            .rule("q", "r", "r(<p, $grand>)")
            .rule("p", "a", "x")
            .rule("p", "x", "x")
            .build()
            .unwrap();
        let input = parse_tree("r(a(a x) a(a))", &mut al).unwrap();
        let out = t.apply(&input).unwrap();
        let expected = parse_tree("r(x x x)", &mut al).unwrap();
        assert_eq!(out, expected, "got {}", out.display(&al));
    }

    #[test]
    fn unknown_state_rejected() {
        let mut al = Alphabet::new();
        let err = TransducerBuilder::new(&mut al)
            .states(&["q"])
            .rule("nope", "a", "b")
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::UnknownState(_)));
    }
}
