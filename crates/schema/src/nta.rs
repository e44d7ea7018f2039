//! Non-deterministic unranked tree automata (Definition 2).

use std::hash::{Hash, Hasher};
use xmlta_automata::Nfa;
use xmlta_base::{FxHashMap, Symbol};
use xmlta_tree::Tree;

/// A non-deterministic (unranked) tree automaton `B = (Q, Σ, δ, F)`.
///
/// `δ(q, a)` is a regular language over `Q`, represented by an [`Nfa`] whose
/// alphabet is the automaton's state set — the paper's `NTA(NFA)`. A missing
/// entry denotes the empty language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Nta {
    alphabet_size: usize,
    num_states: usize,
    delta: FxHashMap<(u32, Symbol), Nfa>,
    is_final: Vec<bool>,
}

/// Hashes the transitions in [`Nta::sorted_transitions`] order, so NTAs
/// that are `==` hash equal whatever order their entries were set in.
impl Hash for Nta {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.alphabet_size.hash(state);
        self.num_states.hash(state);
        self.is_final.hash(state);
        self.sorted_transitions().hash(state);
    }
}

impl Nta {
    /// Creates an NTA over `alphabet_size` symbols with no states.
    pub fn new(alphabet_size: usize) -> Nta {
        Nta {
            alphabet_size,
            num_states: 0,
            delta: FxHashMap::default(),
            is_final: Vec::new(),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> u32 {
        let id = self.num_states as u32;
        self.num_states += 1;
        self.is_final.push(false);
        id
    }

    /// Adds `n` fresh states, returning the first id.
    pub fn add_states(&mut self, n: usize) -> u32 {
        let first = self.num_states as u32;
        for _ in 0..n {
            self.add_state();
        }
        first
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// Marks `q` final.
    pub fn set_final(&mut self, q: u32) {
        self.is_final[q as usize] = true;
    }

    /// Whether `q` is final.
    pub fn is_final_state(&self, q: u32) -> bool {
        self.is_final[q as usize]
    }

    /// Iterates over final states.
    pub fn final_states(&self) -> impl Iterator<Item = u32> + '_ {
        self.is_final
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| if f { Some(i as u32) } else { None })
    }

    /// Sets `δ(q, a)` to the language of `nfa` (an NFA over the state set).
    ///
    /// The NFA's alphabet is grown to the current number of states; adding
    /// states *after* installing transitions is allowed as long as the
    /// installed NFAs never mention them.
    pub fn set_transition(&mut self, q: u32, a: Symbol, mut nfa: Nfa) {
        assert!((q as usize) < self.num_states, "state out of range");
        nfa.grow_alphabet(self.num_states);
        self.delta.insert((q, a), nfa);
    }

    /// The transition language `δ(q, a)`, if non-empty.
    pub fn transition(&self, q: u32, a: Symbol) -> Option<&Nfa> {
        self.delta.get(&(q, a))
    }

    /// Iterates over all `(q, a, nfa)` transition entries.
    pub fn transitions(&self) -> impl Iterator<Item = (u32, Symbol, &Nfa)> {
        self.delta.iter().map(|(&(q, a), n)| (q, a, n))
    }

    /// All transition entries in `(q, a)` order — the canonical iteration
    /// for anything that must be deterministic across equal automata
    /// (printing, encoding, hashing).
    pub fn sorted_transitions(&self) -> Vec<(u32, Symbol, &Nfa)> {
        let mut entries: Vec<_> = self.transitions().collect();
        // Map keys are distinct, so the unstable sort is deterministic.
        entries.sort_unstable_by_key(|&(q, a, _)| (q, a));
        entries
    }

    /// The paper's size measure `|Q| + |Σ| + Σ |δ(q,a)|`.
    pub fn size(&self) -> usize {
        self.num_states + self.alphabet_size + self.delta.values().map(Nfa::size).sum::<usize>()
    }

    /// Bottom-up computation of the set of states assignable to the root of
    /// `t` by some run.
    ///
    /// For a node with children state-sets `S₁ … S_n`, state `q` is
    /// assignable iff the NFA for `δ(q, lab)` accepts some word in
    /// `S₁ × ⋯ × S_n` — decided by the standard set-valued simulation of the
    /// NFA, so membership is polynomial (no enumeration of runs).
    pub fn root_states(&self, t: &Tree) -> Vec<u32> {
        let child_sets: Vec<Vec<u32>> = t.children.iter().map(|c| self.root_states(c)).collect();
        let mut out = Vec::new();
        for q in 0..self.num_states as u32 {
            if let Some(nfa) = self.delta.get(&(q, t.label)) {
                if nfa_accepts_set_sequence(nfa, &child_sets) {
                    out.push(q);
                }
            }
        }
        out
    }

    /// Whether `t ∈ L(B)`.
    pub fn accepts(&self, t: &Tree) -> bool {
        self.root_states(t)
            .iter()
            .any(|&q| self.is_final[q as usize])
    }
}

/// Set-valued NFA simulation: does `nfa` accept some word `w₁…w_n` with
/// `w_i ∈ sets[i]`?
pub(crate) fn nfa_accepts_set_sequence(nfa: &Nfa, sets: &[Vec<u32>]) -> bool {
    let mut cur: Vec<bool> = vec![false; nfa.num_states()];
    for &q in nfa.initial_states() {
        cur[q as usize] = true;
    }
    for set in sets {
        let mut next = vec![false; nfa.num_states()];
        let mut member = vec![false; nfa.alphabet_size()];
        for &s in set {
            if (s as usize) < member.len() {
                member[s as usize] = true;
            }
        }
        for q in 0..nfa.num_states() as u32 {
            if !cur[q as usize] {
                continue;
            }
            for &(l, r) in nfa.transitions_from(q) {
                if member[l as usize] {
                    next[r as usize] = true;
                }
            }
        }
        cur = next;
    }
    (0..nfa.num_states() as u32).any(|q| cur[q as usize] && nfa.is_final_state(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlta_base::Alphabet;
    use xmlta_tree::parse_tree;

    /// NTA accepting trees over {a, b} where every leaf is `a` and every
    /// internal node is `b` (state 0 = ok-subtree), root must be `b`.
    fn leaf_a_internal_b() -> (Alphabet, Nta) {
        let a = Alphabet::from_names(["a", "b"]);
        let mut nta = Nta::new(2);
        let ok_leaf = nta.add_state();
        let ok_b = nta.add_state();
        // δ(ok_leaf, a) = {ε}
        nta.set_transition(ok_leaf, a.sym("a"), Nfa::single_word(2, &[]));
        // δ(ok_b, b) = (ok_leaf | ok_b)+
        let mut plus = Nfa::new(2);
        let s0 = plus.add_state();
        let s1 = plus.add_state();
        plus.set_initial(s0);
        plus.set_final(s1);
        for l in [ok_leaf, ok_b] {
            plus.add_transition(s0, l, s1);
            plus.add_transition(s1, l, s1);
        }
        nta.set_transition(ok_b, a.sym("b"), plus);
        nta.set_final(ok_b);
        (a, nta)
    }

    #[test]
    fn accepts_and_rejects() {
        let (mut al, nta) = leaf_a_internal_b();
        let good = parse_tree("b(a b(a a) a)", &mut al).unwrap();
        assert!(nta.accepts(&good));
        let bad_leaf = parse_tree("b(a b)", &mut al).unwrap();
        assert!(!nta.accepts(&bad_leaf)); // leaf b not allowed
        let bad_root = parse_tree("a", &mut al).unwrap();
        assert!(!nta.accepts(&bad_root)); // root must be internal b
    }

    #[test]
    fn root_states_bottom_up() {
        let (mut al, nta) = leaf_a_internal_b();
        let leaf = parse_tree("a", &mut al).unwrap();
        assert_eq!(nta.root_states(&leaf), vec![0]);
        let t = parse_tree("b(a a)", &mut al).unwrap();
        assert_eq!(nta.root_states(&t), vec![1]);
        let none = parse_tree("b", &mut al).unwrap();
        assert!(nta.root_states(&none).is_empty());
    }

    #[test]
    fn size_measure() {
        let (_, nta) = leaf_a_internal_b();
        assert!(nta.size() > nta.num_states() + nta.alphabet_size());
    }

    #[test]
    fn nondeterministic_choice() {
        // Two states both label leaf `a`; only state 1 is final at root.
        let a = Alphabet::from_names(["a"]);
        let mut nta = Nta::new(1);
        let q0 = nta.add_state();
        let q1 = nta.add_state();
        nta.set_transition(q0, a.sym("a"), Nfa::single_word(2, &[]));
        nta.set_transition(q1, a.sym("a"), Nfa::single_word(2, &[]));
        nta.set_final(q1);
        let t = Tree::leaf(a.sym("a"));
        assert_eq!(nta.root_states(&t), vec![q0, q1]);
        assert!(nta.accepts(&t));
    }
}
