//! Products of unranked tree automata.
//!
//! [`intersection_witness`] decides `L(a) ∩ L(b) = ∅` without building the
//! product: it runs the Figure A.1 fixpoint (Proposition 4) bottom-up over
//! the pairs `(q_a, q_b)` that some tree actually drives both automata
//! into, exploring each pair's two horizontal NFAs together on demand.
//! [`intersect`] builds the whole product automaton; it is the reference
//! the search is tested against.

use crate::nta::Nta;
use std::collections::VecDeque;
use xmlta_automata::Nfa;
use xmlta_base::{FxHashMap, Symbol};
use xmlta_tree::Tree;

/// Builds the product automaton accepting `L(a) ∩ L(b)`.
///
/// States are pairs `(q_a, q_b)` encoded as `q_a * |Q_b| + q_b`; the
/// transition language of a pair on symbol `s` is the "zip" of the two
/// component languages: all strings of pairs whose projections are accepted
/// by the component NFAs. Every one of the `|Q_a| · |Q_b|` pairs is built,
/// inhabited or not, so this is the test reference for
/// [`intersection_witness`], not a decision procedure to run in production.
pub fn intersect(a: &Nta, b: &Nta) -> Nta {
    assert_eq!(a.alphabet_size(), b.alphabet_size(), "alphabet mismatch");
    let nb = b.num_states();
    let pair = |qa: u32, qb: u32| qa * nb as u32 + qb;

    let mut out = Nta::new(a.alphabet_size());
    out.add_states(a.num_states() * nb);
    for qa in a.final_states() {
        for qb in b.final_states() {
            out.set_final(pair(qa, qb));
        }
    }
    for sym in 0..a.alphabet_size() {
        let sym = Symbol::from_index(sym);
        for qa in 0..a.num_states() as u32 {
            let Some(na) = a.transition(qa, sym) else {
                continue;
            };
            for qb in 0..b.num_states() as u32 {
                let Some(nbf) = b.transition(qb, sym) else {
                    continue;
                };
                let zipped = zip_nfas(na, nbf, nb, out.num_states());
                out.set_transition(pair(qa, qb), sym, zipped);
            }
        }
    }
    out
}

/// A tree in `L(a) ∩ L(b)`, kept as the witness DAG of
/// [`intersection_witness`]: one node per inhabited pair, holding the
/// symbol and the children pairs that inhabit it.
///
/// The DAG is polynomial in the automata; the tree it describes need not
/// be, so [`PairWitness::expand`] takes a node cap.
#[derive(Debug)]
pub struct PairWitness {
    /// Nodes in the order the search inhabited them; children always come
    /// first, and the accepting root is the last node.
    nodes: Vec<WitnessNode>,
    /// `b`'s state at the root.
    root_b: u32,
}

#[derive(Debug)]
struct WitnessNode {
    state_a: u32,
    symbol: Symbol,
    /// Indices into [`PairWitness::nodes`].
    children: Vec<u32>,
}

impl PairWitness {
    /// The accepting pair `(q_a, q_b)` at the root.
    pub fn root(&self) -> (u32, u32) {
        (self.nodes.last().expect("root node").state_a, self.root_b)
    }

    /// Expands the DAG into its tree, together with `a`'s run on it (one
    /// state per node, parent-first pre-order, like
    /// [`Nta::accepting_run`]). `None` when the tree has more than
    /// `node_cap` nodes; its size is computed first, so nothing is built
    /// then.
    pub fn expand(&self, node_cap: usize) -> Option<(Tree, Vec<u32>)> {
        let mut size = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let n = node
                .children
                .iter()
                .fold(1usize, |acc, &c| acc.saturating_add(size[c as usize]));
            size.push(n);
        }
        let root = self.nodes.len() - 1;
        if size[root] > node_cap {
            return None;
        }
        let mut run = Vec::with_capacity(size[root]);
        let tree = self.build(root, &mut run);
        Some((tree, run))
    }

    fn build(&self, index: usize, run: &mut Vec<u32>) -> Tree {
        let node = &self.nodes[index];
        run.push(node.state_a);
        let children = node
            .children
            .iter()
            .map(|&c| self.build(c as usize, run))
            .collect();
        Tree::node(node.symbol, children)
    }
}

/// Decides `L(a) ∩ L(b) ≠ ∅` on the fly, returning a witness when it is.
///
/// A pair `(p, r)` is *inhabited* when some tree drives `a` into `p` and
/// `b` into `r` at its root. A *candidate* `(p, r, s)` has both `δ_a(p, s)`
/// and `δ_b(r, s)`; it inhabits `(p, r)` once the two horizontal NFAs read
/// a common word of inhabited pairs, found by a breadth-first search over
/// their product. Candidates accepting the empty word seed the search.
/// When `(p', r')` becomes inhabited, only the candidates whose NFAs read
/// `p'` and `r'` can change, so only they are examined again. The search
/// stops at the first pair of final states.
///
/// Only inhabited pairs get a witness node (every other pair costs one
/// bit), and only the horizontal products the search reaches are
/// explored, so the cost tracks the inhabited part of `a × b` rather than
/// all `|Q_a| · |Q_b|` pairs and their zipped NFAs that [`intersect`]
/// builds. Candidates are examined in `(state, symbol)` order, which makes
/// the witness depend only on the two automata.
pub fn intersection_witness(a: &Nta, b: &Nta) -> Option<PairWitness> {
    assert_eq!(a.alphabet_size(), b.alphabet_size(), "alphabet mismatch");
    Search::new(a, b).run()
}

/// Transitions `δ(q, s)` as `(q, s)`, in that order.
type Transitions = Vec<(u32, Symbol)>;

/// `readers[l]`: the transitions whose NFA reads letter `l`; and the
/// transitions that accept the empty word.
fn readers(n: &Nta) -> (Vec<Transitions>, Transitions) {
    let mut readers = vec![Vec::new(); n.num_states()];
    let mut epsilon = Vec::new();
    let mut last = vec![usize::MAX; n.num_states()];
    for (i, (q, s, nfa)) in n.sorted_transitions().into_iter().enumerate() {
        if nfa
            .initial_states()
            .iter()
            .any(|&q0| nfa.is_final_state(q0))
        {
            epsilon.push((q, s));
        }
        for (_, l, _) in nfa.transitions() {
            if last[l as usize] != i {
                last[l as usize] = i;
                readers[l as usize].push((q, s));
            }
        }
    }
    (readers, epsilon)
}

/// The entries of `list` (sorted by symbol) on symbol `s`, for joining a
/// `b`-side list with an `a`-side transition on `s`.
fn on_symbol(list: &[(Symbol, u32)], s: Symbol) -> &[(Symbol, u32)] {
    let lo = list.partition_point(|&(t, _)| t < s);
    let hi = list.partition_point(|&(t, _)| t <= s);
    &list[lo..hi]
}

struct Search<'n> {
    a: &'n Nta,
    b: &'n Nta,
    nb: usize,
    /// Bitset over pairs `p * nb + r`.
    inhabited: Vec<u64>,
    /// Per `a`-state, how many inhabited pairs it heads: a letter `p'` with
    /// none cannot be read yet.
    row_live: Vec<u32>,
    /// Pair → index of its node in `nodes`.
    slot: FxHashMap<usize, u32>,
    nodes: Vec<WitnessNode>,
    /// Newly inhabited pairs whose readers are still to be examined.
    queue: VecDeque<(u32, u32)>,
    bfs: Bfs,
}

impl<'n> Search<'n> {
    fn new(a: &'n Nta, b: &'n Nta) -> Search<'n> {
        let nb = b.num_states();
        Search {
            a,
            b,
            nb,
            inhabited: vec![0; (a.num_states() * nb).div_ceil(64)],
            row_live: vec![0; a.num_states()],
            slot: FxHashMap::default(),
            nodes: Vec::new(),
            queue: VecDeque::new(),
            bfs: Bfs::default(),
        }
    }

    fn is_inhabited(&self, p: u32, r: u32) -> bool {
        bit(&self.inhabited, p as usize * self.nb + r as usize)
    }

    /// Records `(p, r)` as inhabited by `symbol(children)`; `true` when it
    /// is an accepting pair.
    fn inhabit(&mut self, p: u32, r: u32, symbol: Symbol, children: Vec<u32>) -> bool {
        let i = p as usize * self.nb + r as usize;
        self.inhabited[i / 64] |= 1 << (i % 64);
        self.row_live[p as usize] += 1;
        self.slot.insert(i, self.nodes.len() as u32);
        self.nodes.push(WitnessNode {
            state_a: p,
            symbol,
            children,
        });
        self.queue.push_back((p, r));
        self.a.is_final_state(p) && self.b.is_final_state(r)
    }

    fn run(mut self) -> Option<PairWitness> {
        let (a_readers, a_epsilon) = readers(self.a);
        // `b`'s side is keyed `(s, q)` so that `on_symbol` can slice it.
        let flip = |list: Transitions| {
            let mut list: Vec<(Symbol, u32)> = list.into_iter().map(|(q, s)| (s, q)).collect();
            list.sort_unstable();
            list
        };
        let (b_readers, b_epsilon) = readers(self.b);
        let b_readers: Vec<_> = b_readers.into_iter().map(flip).collect();
        let b_epsilon = flip(b_epsilon);

        for &(p, s) in &a_epsilon {
            for &(_, r) in on_symbol(&b_epsilon, s) {
                if !self.is_inhabited(p, r) && self.inhabit(p, r, s, Vec::new()) {
                    return Some(self.finish(r));
                }
            }
        }
        while let Some((pl, rl)) = self.queue.pop_front() {
            for &(p, s) in &a_readers[pl as usize] {
                for &(_, r) in on_symbol(&b_readers[rl as usize], s) {
                    if self.is_inhabited(p, r) {
                        continue;
                    }
                    let (Some(na), Some(nb)) = (self.a.transition(p, s), self.b.transition(r, s))
                    else {
                        continue;
                    };
                    if let Some(children) = self.word(na, nb) {
                        if self.inhabit(p, r, s, children) {
                            return Some(self.finish(r));
                        }
                    }
                }
            }
        }
        None
    }

    fn finish(self, root_b: u32) -> PairWitness {
        PairWitness {
            nodes: self.nodes,
            root_b,
        }
    }

    /// A shortest word of inhabited pairs accepted by both `na` and `nb`,
    /// as witness-node indices.
    fn word(&mut self, na: &Nfa, nb: &Nfa) -> Option<Vec<u32>> {
        let width = nb.num_states();
        let bfs = &mut self.bfs;
        bfs.reset(na.num_states() * width);
        for &ia in na.initial_states() {
            for &ib in nb.initial_states() {
                bfs.visit(ia as usize * width + ib as usize, None);
            }
        }
        let mut hit = None;
        while let Some(state) = bfs.queue.pop_front() {
            let (ia, ib) = ((state / width) as u32, (state % width) as u32);
            if na.is_final_state(ia) && nb.is_final_state(ib) {
                hit = Some(state);
                break;
            }
            for &(la, ta) in na.transitions_from(ia) {
                if self.row_live[la as usize] == 0 {
                    continue;
                }
                let row = la as usize * self.nb;
                for &(lb, tb) in nb.transitions_from(ib) {
                    let i = row + lb as usize;
                    if bit(&self.inhabited, i) {
                        bfs.visit(ta as usize * width + tb as usize, Some((state, i)));
                    }
                }
            }
        }
        let mut state = hit?;
        let mut word = Vec::new();
        while let Some((prev, pair)) = bfs.parent[state] {
            word.push(self.slot[&pair]);
            state = prev;
        }
        word.reverse();
        Some(word)
    }
}

fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// Scratch for [`Search::word`], reused across candidates: `seen` holds
/// the epoch a state was last visited in, so a reset is O(1).
#[derive(Default)]
struct Bfs {
    epoch: u32,
    seen: Vec<u32>,
    /// Per visited state: its predecessor and the pair read to get there.
    parent: Vec<Option<(usize, usize)>>,
    queue: VecDeque<usize>,
}

impl Bfs {
    fn reset(&mut self, states: usize) {
        self.epoch += 1;
        if self.seen.len() < states {
            self.seen.resize(states, 0);
            self.parent.resize(states, None);
        }
        self.queue.clear();
    }

    fn visit(&mut self, state: usize, parent: Option<(usize, usize)>) {
        if self.seen[state] != self.epoch {
            self.seen[state] = self.epoch;
            self.parent[state] = parent;
            self.queue.push_back(state);
        }
    }
}

/// Product NFA over the paired state alphabet: letter `(x, y)` is encoded as
/// `x * nb + y`.
fn zip_nfas(a: &Nfa, b: &Nfa, nb: usize, pair_alphabet: usize) -> Nfa {
    let mut out = Nfa::new(pair_alphabet);
    let states = a.num_states() * b.num_states();
    for _ in 0..states {
        out.add_state();
    }
    let id = |qa: u32, qb: u32| qa * b.num_states() as u32 + qb;
    for &ia in a.initial_states() {
        for &ib in b.initial_states() {
            out.set_initial(id(ia, ib));
        }
    }
    for qa in 0..a.num_states() as u32 {
        for qb in 0..b.num_states() as u32 {
            if a.is_final_state(qa) && b.is_final_state(qb) {
                out.set_final(id(qa, qb));
            }
            for &(la, ra) in a.transitions_from(qa) {
                for &(lb, rb) in b.transitions_from(qb) {
                    let letter = la * nb as u32 + lb;
                    if (letter as usize) < pair_alphabet {
                        out.add_transition(id(qa, qb), letter, id(ra, rb));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emptiness;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use xmlta_base::Alphabet;
    use xmlta_tree::parse_tree;

    /// NTA for: all trees over {a,b} with root b.
    fn root_b() -> Nta {
        let mut nta = Nta::new(2);
        let any = nta.add_state();
        let root = nta.add_state();
        let star = |syms: &[u32]| {
            let mut n = Nfa::new(2);
            let s = n.add_state();
            n.set_initial(s);
            n.set_final(s);
            for &l in syms {
                n.add_transition(s, l, s);
            }
            n
        };
        nta.set_transition(any, Symbol(0), star(&[any]));
        nta.set_transition(any, Symbol(1), star(&[any]));
        nta.set_transition(root, Symbol(1), star(&[any]));
        nta.set_final(root);
        nta
    }

    /// NTA for: all trees of depth ≤ 2 (root + leaves).
    fn depth_le_2() -> Nta {
        let mut nta = Nta::new(2);
        let leaf = nta.add_state();
        let root = nta.add_state();
        for s in [Symbol(0), Symbol(1)] {
            nta.set_transition(leaf, s, Nfa::single_word(2, &[]));
            let mut star = Nfa::new(2);
            let st = star.add_state();
            star.set_initial(st);
            star.set_final(st);
            star.add_transition(st, leaf, st);
            nta.set_transition(root, s, star);
        }
        nta.set_final(root);
        nta
    }

    #[test]
    fn intersection_semantics() {
        let p = intersect(&root_b(), &depth_le_2());
        let mut al = Alphabet::from_names(["a", "b"]);
        let yes = parse_tree("b(a b a)", &mut al).unwrap();
        assert!(p.accepts(&yes));
        let wrong_root = parse_tree("a(a b)", &mut al).unwrap();
        assert!(!p.accepts(&wrong_root));
        let too_deep = parse_tree("b(a(b))", &mut al).unwrap();
        assert!(!p.accepts(&too_deep));
        let leaf_b = parse_tree("b", &mut al).unwrap();
        assert!(p.accepts(&leaf_b));
    }

    /// A random NFA over the letters `0..states`: a chain of 1–2 random
    /// letters into a final state, plus up to 3 random edges and final
    /// states; its initial state is final with probability `p_empty`.
    fn random_nfa(rng: &mut SmallRng, states: usize, p_empty: f64) -> Nfa {
        let mut nfa = Nfa::new(states);
        let n = rng.gen_range(2..=3u32);
        for _ in 0..n {
            nfa.add_state();
        }
        nfa.set_initial(0);
        nfa.set_final(n - 1);
        if rng.gen_bool(p_empty) {
            nfa.set_final(0);
        }
        for q in 1..n - 1 {
            if rng.gen_bool(0.3) {
                nfa.set_final(q);
            }
        }
        let letter = |rng: &mut SmallRng| rng.gen_range(0..states as u32);
        for q in 0..n - 1 {
            let l = letter(rng);
            nfa.add_transition(q, l, q + 1);
        }
        for _ in 0..rng.gen_range(0..=3usize) {
            let (from, to, l) = (rng.gen_range(0..n), rng.gen_range(0..n), letter(rng));
            nfa.add_transition(from, l, to);
        }
        nfa
    }

    /// A random NTA with 2–4 states over `sigma` symbols. Each `δ(q, s)`
    /// is present with probability ¾. Only state 0's languages contain
    /// the empty word with any likelihood, and state 0 is seldom final,
    /// so members are seldom bare leaves.
    fn random_nta(rng: &mut SmallRng, sigma: usize) -> Nta {
        let states = rng.gen_range(2..=4usize);
        let mut nta = Nta::new(sigma);
        nta.add_states(states);
        for q in 0..states as u32 {
            if rng.gen_bool(if q == 0 { 0.1 } else { 0.6 }) {
                nta.set_final(q);
            }
            for s in 0..sigma {
                if rng.gen_bool(0.75) {
                    let p_empty = if q == 0 { 0.6 } else { 0.1 };
                    let nfa = random_nfa(rng, states, p_empty);
                    nta.set_transition(q, Symbol::from_index(s), nfa);
                }
            }
        }
        nta
    }

    /// `a` with a quarter of its transitions redrawn or dropped and a
    /// quarter of its finals flipped: a partner whose intersection with
    /// `a` is often, but not always, non-empty.
    fn mutate(rng: &mut SmallRng, a: &Nta) -> Nta {
        let states = a.num_states();
        let mut b = Nta::new(a.alphabet_size());
        b.add_states(states);
        for q in 0..states as u32 {
            if a.is_final_state(q) != rng.gen_bool(0.25) {
                b.set_final(q);
            }
        }
        for (q, s, nfa) in a.sorted_transitions() {
            match rng.gen_range(0..8u32) {
                0 => {}
                1 => b.set_transition(q, s, random_nfa(rng, states, 0.2)),
                _ => b.set_transition(q, s, nfa.clone()),
            }
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The on-the-fly search agrees with emptiness of the eager
        /// product, and its witness is accepted by both automata.
        #[test]
        fn on_the_fly_emptiness_matches_the_product(seed in 0u64..1_000_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let sigma = rng.gen_range(1..=2usize);
            let a = random_nta(&mut rng, sigma);
            let b = if rng.gen_bool(0.5) {
                mutate(&mut rng, &a)
            } else {
                random_nta(&mut rng, sigma)
            };
            let witness = intersection_witness(&a, &b);
            prop_assert_eq!(witness.is_none(), emptiness::is_empty(&intersect(&a, &b)));
            if let Some(w) = witness {
                let (root_a, root_b) = w.root();
                prop_assert!(a.is_final_state(root_a) && b.is_final_state(root_b));
                let (tree, run) = w.expand(1_000_000).expect("small witness");
                prop_assert!(a.accepts(&tree), "seed {}: rejected by a", seed);
                prop_assert!(b.accepts(&tree), "seed {}: rejected by b", seed);
                prop_assert_eq!(run.len(), tree.num_nodes());
                prop_assert_eq!(run[0], root_a);
            }
        }
    }

    #[test]
    fn witness_over_the_cap_is_not_built() {
        let p = intersect(&root_b(), &depth_le_2());
        assert!(!emptiness::is_empty(&p));
        let w = intersection_witness(&root_b(), &depth_le_2()).expect("non-empty");
        // The smallest member is the bare leaf `b`.
        assert!(w.expand(0).is_none());
        let (tree, run) = w.expand(1).expect("fits");
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(run, vec![w.root().0]);
    }

    #[test]
    fn intersection_emptiness_composes() {
        let p = intersect(&root_b(), &depth_le_2());
        assert!(!emptiness::is_empty(&p));
        let t = emptiness::witness_tree(&p, 100).unwrap();
        assert!(root_b().accepts(&t));
        assert!(depth_le_2().accepts(&t));
    }
}
