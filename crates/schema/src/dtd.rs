//! DTDs parameterized by a string-language representation (Definition 1).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use xmlta_automata::{Dfa, Nfa, RePlus, Regex};
use xmlta_base::{Alphabet, FxHashMap, Symbol};
use xmlta_tree::{Tree, TreePath};

/// A representation of a regular string language over Σ — the paper's
/// parameter `M` in `DTD(M)`.
///
/// The variants correspond to the classes the paper distinguishes:
/// `DTD(DFA)`, `DTD(NFA)`, `DTD(RE)` (general regular expressions, used in
/// examples) and `DTD(RE+)` (Section 5).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StringLang {
    /// Deterministic finite automaton, shared so that compiled schemas and
    /// caches can hand the same DFA to many DTDs without deep-cloning the
    /// transition table (cloning a `StringLang::Dfa` is an `Arc` bump).
    Dfa(Arc<Dfa>),
    /// Non-deterministic finite automaton.
    Nfa(Nfa),
    /// Regular expression.
    Regex(Regex),
    /// `RE+` expression (concatenation of `a` / `a+` factors).
    RePlus(RePlus),
}

impl StringLang {
    /// Wraps a DFA (the common construction in tests and generators).
    pub fn dfa(d: Dfa) -> StringLang {
        StringLang::Dfa(Arc::new(d))
    }

    /// Whether the word (of child labels) belongs to the language.
    pub fn contains(&self, word: &[Symbol]) -> bool {
        let letters: Vec<u32> = word.iter().map(|s| s.0).collect();
        match self {
            StringLang::Dfa(d) => d.accepts(&letters),
            StringLang::Nfa(n) => n.accepts(&letters),
            StringLang::Regex(r) => {
                // Compiled per call; validation paths that care should
                // convert the DTD to DFA form first (`Dtd::compile_to_dfas`).
                let sigma = self.min_alphabet_size(word);
                r.to_nfa(sigma).accepts(&letters)
            }
            StringLang::RePlus(r) => r.accepts(&letters),
        }
    }

    fn min_alphabet_size(&self, word: &[Symbol]) -> usize {
        let mut m = 0usize;
        for s in word {
            m = m.max(s.index() + 1);
        }
        for l in self.letters() {
            m = m.max(l as usize + 1);
        }
        m
    }

    /// Converts to an NFA over an alphabet of `alphabet_size` letters.
    pub fn to_nfa(&self, alphabet_size: usize) -> Nfa {
        match self {
            StringLang::Dfa(d) => {
                let mut n = d.to_nfa();
                n.grow_alphabet(alphabet_size);
                n
            }
            StringLang::Nfa(n) => {
                let mut n = n.clone();
                n.grow_alphabet(alphabet_size);
                n
            }
            StringLang::Regex(r) => r.to_nfa(alphabet_size),
            StringLang::RePlus(r) => {
                let mut n = r.to_dfa(alphabet_size).to_nfa();
                n.grow_alphabet(alphabet_size);
                n
            }
        }
    }

    /// Converts to a DFA over an alphabet of `alphabet_size` letters.
    ///
    /// Exponential in the worst case for the `Nfa`/`Regex` variants — the
    /// paper's hard typechecking cells hide exactly here.
    pub fn to_dfa(&self, alphabet_size: usize) -> Dfa {
        match self {
            StringLang::Dfa(d) => (**d).clone(),
            StringLang::RePlus(r) => r.to_dfa(alphabet_size),
            _ => xmlta_automata::ops::determinize(&self.to_nfa(alphabet_size)),
        }
    }

    /// Like [`StringLang::to_dfa`] but shared: the `Dfa` variant is returned
    /// by reference count instead of deep-cloned. This is the conversion the
    /// engines and the schema-compilation cache use.
    pub fn to_shared_dfa(&self, alphabet_size: usize) -> Arc<Dfa> {
        match self {
            StringLang::Dfa(d) => Arc::clone(d),
            other => Arc::new(other.to_dfa(alphabet_size)),
        }
    }

    /// The paper's size measure of the representation.
    pub fn size(&self) -> usize {
        match self {
            StringLang::Dfa(d) => d.size(),
            StringLang::Nfa(n) => n.size(),
            StringLang::Regex(r) => r.size(),
            StringLang::RePlus(r) => r.size().max(1),
        }
    }

    /// Letters that can occur in words of the language (over-approximation
    /// for automata: letters on any transition).
    pub fn letters(&self) -> Vec<u32> {
        match self {
            StringLang::Dfa(d) => {
                let mut out = Vec::new();
                for q in 0..d.num_states() as u32 {
                    for l in 0..d.alphabet_size() as u32 {
                        if d.step(q, l).is_some() {
                            out.push(l);
                        }
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            StringLang::Nfa(n) => {
                let mut out: Vec<u32> = n.transitions().map(|(_, l, _)| l).collect();
                out.sort_unstable();
                out.dedup();
                out
            }
            StringLang::Regex(r) => r.letters(),
            StringLang::RePlus(r) => r.letters(),
        }
    }
}

/// A Document Type Definition `(d, s_d)` over an interned alphabet.
///
/// `d` maps every symbol to a [`StringLang`] constraining its children;
/// symbols without an explicit rule are constrained to be leaves (children
/// language `{ε}`), matching the common `EMPTY` declaration.
///
/// The rule table is shared by `Arc` and copied on the first
/// [`Dtd::set_rule`] after a clone, so clones of one DTD cost a reference
/// count until one of them is edited.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dtd {
    alphabet_size: usize,
    start: Symbol,
    rules: Arc<FxHashMap<Symbol, StringLang>>,
}

/// Hashes the rule table in [`Dtd::sorted_rules`] order, so DTDs that are
/// `==` hash equal whatever order their rules were inserted in.
impl Hash for Dtd {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.alphabet_size.hash(state);
        self.start.hash(state);
        self.sorted_rules().hash(state);
    }
}

impl Dtd {
    /// Creates a DTD with start symbol `start` and no rules yet.
    pub fn new(alphabet_size: usize, start: Symbol) -> Dtd {
        Dtd {
            alphabet_size,
            start,
            rules: Arc::default(),
        }
    }

    /// Parses a DTD from rules in the paper's notation, e.g.
    ///
    /// ```text
    /// book    -> title author+ chapter+
    /// chapter -> title intro section+
    /// section -> title paragraph+ section*
    /// ```
    ///
    /// The first rule's left-hand side is the start symbol. Right-hand sides
    /// are parsed as general regular expressions ([`Regex::parse`] syntax)
    /// and stored as `StringLang::Regex`; use [`Dtd::compile_to_dfas`] to
    /// obtain a `DTD(DFA)`.
    pub fn parse(input: &str, alphabet: &mut Alphabet) -> Result<Dtd, String> {
        let mut rules = Vec::new();
        for line in input.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let (lhs, rhs) = line
                .split_once("->")
                .ok_or_else(|| format!("missing `->` in DTD rule `{line}`"))?;
            let lhs = lhs.trim();
            if lhs.is_empty() {
                return Err(format!("empty left-hand side in `{line}`"));
            }
            let sym = alphabet.intern(lhs);
            let re = Regex::parse(rhs.trim(), alphabet).map_err(|e| e.to_string())?;
            rules.push((sym, re));
        }
        let start = rules
            .first()
            .map(|(s, _)| *s)
            .ok_or_else(|| "DTD has no rules".to_string())?;
        let mut dtd = Dtd::new(alphabet.len(), start);
        for (sym, re) in rules {
            dtd.set_rule(sym, StringLang::Regex(re));
        }
        Ok(dtd)
    }

    /// Parses a `DTD(RE+)` (Section 5): every right-hand side must be an
    /// `RE+` expression.
    pub fn parse_replus(input: &str, alphabet: &mut Alphabet) -> Result<Dtd, String> {
        let mut rules = Vec::new();
        for line in input.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let (lhs, rhs) = line
                .split_once("->")
                .ok_or_else(|| format!("missing `->` in DTD rule `{line}`"))?;
            let sym = alphabet.intern(lhs.trim());
            let re = RePlus::parse(rhs.trim(), alphabet)?;
            rules.push((sym, re));
        }
        let start = rules
            .first()
            .map(|(s, _)| *s)
            .ok_or_else(|| "DTD has no rules".to_string())?;
        let mut dtd = Dtd::new(alphabet.len(), start);
        for (sym, re) in rules {
            dtd.set_rule(sym, StringLang::RePlus(re));
        }
        Ok(dtd)
    }

    /// Sets (or replaces) the rule for `sym`.
    pub fn set_rule(&mut self, sym: Symbol, lang: StringLang) {
        self.alphabet_size = self.alphabet_size.max(sym.index() + 1);
        for l in lang.letters() {
            self.alphabet_size = self.alphabet_size.max(l as usize + 1);
        }
        Arc::make_mut(&mut self.rules).insert(sym, lang);
    }

    /// Whether `self` and `other` share one rule table — true for clones
    /// neither of which has been edited since, which therefore have equal
    /// rules.
    pub fn shares_rules_with(&self, other: &Dtd) -> bool {
        Arc::ptr_eq(&self.rules, &other.rules)
    }

    /// The rule for `sym`, if explicitly present.
    pub fn rule(&self, sym: Symbol) -> Option<&StringLang> {
        self.rules.get(&sym)
    }

    /// The start symbol `s_d`.
    pub fn start(&self) -> Symbol {
        self.start
    }

    /// Replaces the start symbol (the paper's `(d, a)` notation).
    pub fn with_start(&self, start: Symbol) -> Dtd {
        let mut d = self.clone();
        d.start = start;
        d.alphabet_size = d.alphabet_size.max(start.index() + 1);
        d
    }

    /// The alphabet size the DTD is defined over.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// Grows the DTD's alphabet (new symbols default to the leaf rule).
    pub fn grow_alphabet(&mut self, n: usize) {
        self.alphabet_size = self.alphabet_size.max(n);
    }

    /// Iterates over the explicitly defined rules.
    pub fn rules(&self) -> impl Iterator<Item = (Symbol, &StringLang)> {
        self.rules.iter().map(|(&s, l)| (s, l))
    }

    /// The explicitly defined rules in symbol order — the canonical
    /// iteration for anything that must be deterministic across equal DTDs
    /// (printing, encoding, hashing).
    pub fn sorted_rules(&self) -> Vec<(Symbol, &StringLang)> {
        let mut rules: Vec<_> = self.rules().collect();
        // Map keys are distinct, so the unstable sort is deterministic.
        rules.sort_unstable_by_key(|&(s, _)| s);
        rules
    }

    /// Total size (paper's measure: sum of rule representation sizes).
    pub fn size(&self) -> usize {
        self.rules
            .values()
            .map(StringLang::size)
            .sum::<usize>()
            .max(1)
    }

    /// Whether the children-string `word` is allowed below `sym`.
    pub fn allows(&self, sym: Symbol, word: &[Symbol]) -> bool {
        match self.rules.get(&sym) {
            Some(lang) => lang.contains(word),
            None => word.is_empty(),
        }
    }

    /// Checks `t ∈ L(d)` (Definition 1): root label is the start symbol and
    /// every node's children string is allowed.
    pub fn validate(&self, t: &Tree) -> Result<(), ValidationError> {
        if t.label != self.start {
            return Err(ValidationError {
                path: TreePath::root(),
                label: t.label,
                reason: Reason::WrongRoot {
                    expected: self.start,
                },
            });
        }
        self.validate_partial_at(t, &TreePath::root())
    }

    /// Whether `t ∈ L(d)`.
    pub fn accepts(&self, t: &Tree) -> bool {
        self.validate(t).is_ok()
    }

    /// The paper's "partly satisfies": every node's children string is
    /// allowed, with no constraint on root labels of the hedge.
    pub fn partly_satisfies(&self, hedge: &[Tree]) -> bool {
        hedge
            .iter()
            .all(|t| self.validate_partial_at(t, &TreePath::root()).is_ok())
    }

    fn validate_partial_at(&self, t: &Tree, path: &TreePath) -> Result<(), ValidationError> {
        if !self.allows(t.label, &t.child_labels()) {
            return Err(ValidationError {
                path: path.clone(),
                label: t.label,
                reason: Reason::ChildrenRejected {
                    children: t.child_labels(),
                },
            });
        }
        for (i, c) in t.children.iter().enumerate() {
            self.validate_partial_at(c, &path.child(i as u32))?;
        }
        Ok(())
    }

    /// Converts every rule to a DFA: the resulting DTD is a `DTD(DFA)`.
    pub fn compile_to_dfas(&self) -> Dtd {
        let mut d = Dtd::new(self.alphabet_size, self.start);
        for (sym, lang) in self.rules.iter() {
            d.set_rule(
                *sym,
                StringLang::Dfa(lang.to_shared_dfa(self.alphabet_size)),
            );
        }
        d
    }

    /// Whether every rule is already a DFA.
    pub fn is_dfa_dtd(&self) -> bool {
        self.rules.values().all(|l| matches!(l, StringLang::Dfa(_)))
    }

    /// Whether every rule is an `RE+` expression.
    pub fn is_replus_dtd(&self) -> bool {
        self.rules
            .values()
            .all(|l| matches!(l, StringLang::RePlus(_)))
    }

    /// *Productive* symbols: `a` is productive iff some finite tree rooted
    /// at `a` locally satisfies the DTD. Computed by the usual fixpoint.
    pub fn productive_symbols(&self) -> Vec<bool> {
        let mut productive = vec![false; self.alphabet_size];
        // Symbols without a rule are leaves — always productive.
        for (i, p) in productive.iter_mut().enumerate() {
            if !self.rules.contains_key(&Symbol::from_index(i)) {
                *p = true;
            }
        }
        // Cache NFAs once.
        let nfas: FxHashMap<Symbol, Nfa> = self
            .rules
            .iter()
            .map(|(&s, l)| (s, l.to_nfa(self.alphabet_size)))
            .collect();
        loop {
            let mut changed = false;
            for (&sym, nfa) in &nfas {
                if productive[sym.index()] {
                    continue;
                }
                if nfa.accepts_some_restricted(|l| productive[l as usize]) {
                    productive[sym.index()] = true;
                    changed = true;
                }
            }
            if !changed {
                return productive;
            }
        }
    }

    /// Whether `L(d) = ∅` (start symbol not productive).
    pub fn is_empty(&self) -> bool {
        !self.productive_symbols()[self.start.index()]
    }

    /// Symbols reachable from the start through productive contexts; a tree
    /// in `L(d)` can only use symbols that are both reachable and productive.
    pub fn reachable_symbols(&self) -> Vec<bool> {
        let productive = self.productive_symbols();
        let mut reachable = vec![false; self.alphabet_size];
        if !productive[self.start.index()] {
            return reachable;
        }
        reachable[self.start.index()] = true;
        let mut stack = vec![self.start];
        while let Some(sym) = stack.pop() {
            let Some(lang) = self.rules.get(&sym) else {
                continue;
            };
            let nfa = lang.to_nfa(self.alphabet_size);
            // A child symbol b is possible below `sym` iff some word of the
            // children language uses b with all letters productive.
            for b in 0..self.alphabet_size as u32 {
                if reachable[b as usize] || !productive[b as usize] {
                    continue;
                }
                if nfa_accepts_word_containing(&nfa, b, |l| productive[l as usize]) {
                    reachable[b as usize] = true;
                    stack.push(Symbol(b));
                }
            }
        }
        reachable
    }

    /// A minimal-ish tree rooted at `sym` that locally satisfies the DTD, or
    /// `None` when `sym` is not productive.
    pub fn sample_tree(&self, sym: Symbol) -> Option<Tree> {
        self.sample_tree_with(sym, &self.productive_symbols())
    }

    /// [`Dtd::sample_tree`] with the productive-symbol vector supplied by
    /// the caller, so repeated samples over one DTD run the productivity
    /// fixpoint once. `productive` must equal
    /// [`Dtd::productive_symbols`]; the result is then the same tree.
    pub fn sample_tree_with(&self, sym: Symbol, productive: &[bool]) -> Option<Tree> {
        if !productive[sym.index()] {
            return None;
        }
        let Some(lang) = self.rules.get(&sym) else {
            return Some(Tree::leaf(sym));
        };
        let nfa = lang.to_nfa(self.alphabet_size);
        let word = nfa.shortest_word_restricted(|l| productive[l as usize])?;
        let children = word
            .iter()
            .map(|&l| self.sample_tree_with(Symbol(l), productive))
            .collect::<Option<Vec<_>>>()?;
        Some(Tree::node(sym, children))
    }

    /// A sample tree from `L(d)`, or `None` when the language is empty.
    pub fn sample(&self) -> Option<Tree> {
        self.sample_tree(self.start)
    }

    /// Whether the DTD is recursive (some reachable symbol can occur below
    /// itself). Section 5 observes that a recursive `DTD(RE+)` defines ∅.
    pub fn is_recursive(&self) -> bool {
        // Edge a -> b if b can appear in a word of d(a) (over-approximation:
        // any letter occurring in the rule representation).
        let n = self.alphabet_size;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (&sym, lang) in self.rules.iter() {
            adj[sym.index()] = lang.letters();
        }
        // DFS from start looking for a cycle.
        #[derive(Clone, Copy, PartialEq)]
        enum C {
            White,
            Grey,
            Black,
        }
        let mut color = vec![C::White; n];
        let mut stack: Vec<(usize, usize)> = vec![(self.start.index(), 0)];
        color[self.start.index()] = C::Grey;
        while let Some((q, i)) = stack.pop() {
            if i < adj[q].len() {
                stack.push((q, i + 1));
                let r = adj[q][i] as usize;
                match color[r] {
                    C::Grey => return true,
                    C::White => {
                        color[r] = C::Grey;
                        stack.push((r, 0));
                    }
                    C::Black => {}
                }
            } else {
                color[q] = C::Black;
            }
        }
        false
    }
}

/// Checks whether `nfa` accepts a word over `allowed` letters that contains
/// `must` at least once.
pub(crate) fn nfa_accepts_word_containing(
    nfa: &Nfa,
    must: u32,
    mut allowed: impl FnMut(u32) -> bool,
) -> bool {
    // Two-layer reachability: layer 0 before consuming `must`, layer 1 after.
    let n = nfa.num_states();
    let mut seen = vec![[false; 2]; n];
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for &q in nfa.initial_states() {
        if !seen[q as usize][0] {
            seen[q as usize][0] = true;
            stack.push((q, 0));
        }
    }
    while let Some((q, layer)) = stack.pop() {
        if layer == 1 && nfa.is_final_state(q) {
            return true;
        }
        for &(l, r) in nfa.transitions_from(q) {
            if !allowed(l) {
                continue;
            }
            let next_layer = if l == must { 1 } else { layer };
            if !seen[r as usize][next_layer] {
                seen[r as usize][next_layer] = true;
                stack.push((r, next_layer));
            }
        }
    }
    false
}

/// Why a tree failed DTD validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// The offending node.
    pub path: TreePath,
    /// Its label.
    pub label: Symbol,
    /// What went wrong.
    pub reason: Reason,
}

/// The specific validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// Root label is not the start symbol.
    WrongRoot {
        /// The required start symbol.
        expected: Symbol,
    },
    /// The children string is not in the node's content model.
    ChildrenRejected {
        /// The rejected children string.
        children: Vec<Symbol>,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            Reason::WrongRoot { expected } => write!(
                f,
                "root labeled {:?} but start symbol is {:?}",
                self.label, expected
            ),
            Reason::ChildrenRejected { children } => write!(
                f,
                "children {:?} of node {} (label {:?}) violate the content model",
                children, self.path, self.label
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlta_tree::parse_tree;

    #[test]
    fn clones_share_rules_until_one_is_edited() {
        let mut a = Alphabet::new();
        let d = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        let mut e = d.clone();
        assert!(e.shares_rules_with(&d));
        let x = a.sym("x");
        e.set_rule(x, StringLang::Regex(Regex::parse("r", &mut a).unwrap()));
        assert!(!e.shares_rules_with(&d));
        // The edit copied the table: the original keeps its rule.
        let tree = parse_tree("r(x x)", &mut a).unwrap();
        assert!(d.compile_to_dfas().accepts(&tree));
        assert!(!e.compile_to_dfas().accepts(&tree));
    }

    /// The book DTD of Example 10.
    fn book_dtd(a: &mut Alphabet) -> Dtd {
        Dtd::parse(
            "book -> title author+ chapter+\n\
             chapter -> title intro section+\n\
             section -> title paragraph+ section*",
            a,
        )
        .expect("parse DTD")
    }

    #[test]
    fn validates_example10_document() {
        let mut a = Alphabet::new();
        let d = book_dtd(&mut a);
        // The Figure 3 document.
        let t = parse_tree(
            "book(title author chapter(title intro section(title paragraph)) \
             chapter(title intro section(title paragraph section(title paragraph))))",
            &mut a,
        )
        .unwrap();
        assert!(d.accepts(&t));
    }

    #[test]
    fn rejects_bad_documents() {
        let mut a = Alphabet::new();
        let d = book_dtd(&mut a);
        // Missing author.
        let t = parse_tree(
            "book(title chapter(title intro section(title paragraph)))",
            &mut a,
        )
        .unwrap();
        let err = d.validate(&t).unwrap_err();
        assert!(matches!(err.reason, Reason::ChildrenRejected { .. }));
        assert!(err.path.is_root());
        // Wrong root.
        let t2 = parse_tree("chapter(title intro section(title paragraph))", &mut a).unwrap();
        assert!(matches!(
            d.validate(&t2).unwrap_err().reason,
            Reason::WrongRoot { .. }
        ));
    }

    #[test]
    fn partly_satisfies_ignores_roots() {
        let mut a = Alphabet::new();
        let d = book_dtd(&mut a);
        // A lone `chapter` subtree partly satisfies even though the root is
        // not the start symbol.
        let t = parse_tree("chapter(title intro section(title paragraph))", &mut a).unwrap();
        assert!(d.partly_satisfies(&[t]));
        let bad = parse_tree("chapter(intro)", &mut a).unwrap();
        assert!(!d.partly_satisfies(&[bad]));
        assert!(d.partly_satisfies(&[]));
    }

    #[test]
    fn leaf_rule_default() {
        let mut a = Alphabet::new();
        let d = book_dtd(&mut a);
        let title = a.sym("title");
        assert!(d.allows(title, &[]));
        assert!(!d.allows(title, &[title]));
    }

    #[test]
    fn productivity_and_emptiness() {
        let mut a = Alphabet::new();
        let d = book_dtd(&mut a);
        let prod = d.productive_symbols();
        assert!(prod[a.sym("book").index()]);
        assert!(prod[a.sym("section").index()]);
        assert!(!d.is_empty());
        // A DTD requiring infinite recursion is empty: a -> a.
        let mut a2 = Alphabet::new();
        let d2 = Dtd::parse("a -> a", &mut a2).unwrap();
        assert!(d2.is_empty());
        assert_eq!(d2.sample(), None);
    }

    #[test]
    fn sample_tree_is_valid() {
        let mut a = Alphabet::new();
        let d = book_dtd(&mut a);
        let t = d.sample().expect("non-empty");
        assert!(d.accepts(&t), "sample {:?} must validate", t);
    }

    #[test]
    fn reachable_symbols() {
        let mut a = Alphabet::new();
        let mut d = book_dtd(&mut a);
        let orphan = a.intern("orphan");
        d.grow_alphabet(a.len());
        let r = d.reachable_symbols();
        assert!(r[a.sym("book").index()]);
        assert!(r[a.sym("paragraph").index()]);
        assert!(!r[orphan.index()]);
    }

    #[test]
    fn recursion_detection() {
        let mut a = Alphabet::new();
        let d = book_dtd(&mut a);
        assert!(d.is_recursive()); // section can contain section
        let mut a2 = Alphabet::new();
        let d2 = Dtd::parse("r -> x y\nx -> y\ny -> ", &mut a2).unwrap();
        assert!(!d2.is_recursive());
    }

    #[test]
    fn compile_to_dfas_preserves_language() {
        let mut a = Alphabet::new();
        let d = book_dtd(&mut a);
        let dd = d.compile_to_dfas();
        assert!(dd.is_dfa_dtd());
        let t = d.sample().unwrap();
        assert!(dd.accepts(&t));
        let bad = parse_tree("book(title)", &mut a).unwrap();
        assert_eq!(d.accepts(&bad), dd.accepts(&bad));
    }

    #[test]
    fn replus_dtd_parsing() {
        let mut a = Alphabet::new();
        let d = Dtd::parse_replus(
            "book -> title author+ chapter+\nchapter -> title intro",
            &mut a,
        )
        .unwrap();
        assert!(d.is_replus_dtd());
        let t = parse_tree("book(title author chapter(title intro))", &mut a).unwrap();
        assert!(d.accepts(&t));
        assert!(Dtd::parse_replus("a -> b*", &mut a).is_err());
    }

    #[test]
    fn recursive_replus_dtd_is_empty() {
        // Section 5: every DTD(RE+) is non-recursive or defines ∅ because
        // every factor is mandatory.
        let mut a = Alphabet::new();
        let d = Dtd::parse_replus("a -> b\nb -> a", &mut a).unwrap();
        assert!(d.is_recursive());
        assert!(d.is_empty());
    }

    #[test]
    fn with_start_changes_root() {
        let mut a = Alphabet::new();
        let d = book_dtd(&mut a);
        let d2 = d.with_start(a.sym("chapter"));
        let t = parse_tree("chapter(title intro section(title paragraph))", &mut a).unwrap();
        assert!(d2.accepts(&t));
        assert!(!d.accepts(&t));
    }
}
