//! Deterministic finite automata.

use crate::nfa::Nfa;
use crate::Letter;
use std::collections::VecDeque;
use std::fmt;

/// A deterministic finite automaton with a dense transition table.
///
/// The transition function may be partial (`None` entries mean the run dies);
/// [`Dfa::complete`] adds an explicit sink. The paper's DFAs have a single
/// initial state and at most one successor per `(state, letter)`, which is
/// exactly this representation.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Dfa {
    alphabet_size: usize,
    /// Row-major table: `table[q * alphabet_size + l]`.
    table: Vec<Option<u32>>,
    num_states: usize,
    initial: u32,
    is_final: Vec<bool>,
}

impl Dfa {
    /// Creates a DFA with one (initial, non-final) state and no transitions.
    pub fn new(alphabet_size: usize) -> Self {
        Dfa {
            alphabet_size,
            table: vec![None; alphabet_size],
            num_states: 1,
            initial: 0,
            is_final: vec![false],
        }
    }

    /// A DFA accepting only the empty word.
    pub fn epsilon_only(alphabet_size: usize) -> Self {
        let mut d = Dfa::new(alphabet_size);
        d.set_final(0);
        d
    }

    /// A DFA accepting the empty language.
    pub fn empty_language(alphabet_size: usize) -> Self {
        Dfa::new(alphabet_size)
    }

    /// A DFA accepting all words over the alphabet.
    pub fn universal(alphabet_size: usize) -> Self {
        let mut d = Dfa::new(alphabet_size);
        d.set_final(0);
        for l in 0..alphabet_size as u32 {
            d.set_transition(0, l, 0);
        }
        d
    }

    /// A DFA accepting exactly `word`.
    pub fn single_word(alphabet_size: usize, word: &[Letter]) -> Self {
        let mut d = Dfa::new(alphabet_size);
        let mut prev = 0;
        for &l in word {
            let next = d.add_state();
            d.set_transition(prev, l, next);
            prev = next;
        }
        d.set_final(prev);
        d
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// Grows the alphabet to at least `n` letters (no transitions change;
    /// the new letters have none).
    pub fn grow_alphabet(&mut self, n: usize) {
        if n <= self.alphabet_size {
            return;
        }
        let mut table = vec![None; self.num_states * n];
        for (q, row) in self
            .table
            .chunks_exact(self.alphabet_size.max(1))
            .enumerate()
        {
            table[q * n..q * n + row.len()].copy_from_slice(row);
        }
        self.table = table;
        self.alphabet_size = n;
    }

    /// Adds a fresh state; returns its id.
    pub fn add_state(&mut self) -> u32 {
        let id = self.num_states as u32;
        self.num_states += 1;
        self.table
            .extend(std::iter::repeat_n(None, self.alphabet_size));
        self.is_final.push(false);
        id
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, q: u32) {
        self.initial = q;
    }

    /// The initial state.
    pub fn initial_state(&self) -> u32 {
        self.initial
    }

    /// Marks `q` final.
    pub fn set_final(&mut self, q: u32) {
        self.is_final[q as usize] = true;
    }

    /// Unmarks `q` final.
    pub fn clear_final(&mut self, q: u32) {
        self.is_final[q as usize] = false;
    }

    /// Whether `q` is final.
    pub fn is_final_state(&self, q: u32) -> bool {
        self.is_final[q as usize]
    }

    /// Sets the transition `q --l--> r` (overwrites any previous target).
    pub fn set_transition(&mut self, q: u32, l: Letter, r: u32) {
        debug_assert!((l as usize) < self.alphabet_size, "letter out of range");
        self.table[q as usize * self.alphabet_size + l as usize] = Some(r);
    }

    /// The successor of `q` on `l`, if defined. Letters outside the DFA's
    /// alphabet have no transitions (the run dies) — callers mixing
    /// alphabets of different sizes rely on this.
    #[inline]
    pub fn step(&self, q: u32, l: Letter) -> Option<u32> {
        if (l as usize) >= self.alphabet_size {
            return None;
        }
        self.table[q as usize * self.alphabet_size + l as usize]
    }

    /// Runs the DFA on `word` from state `from`.
    pub fn run_from(&self, from: u32, word: &[Letter]) -> Option<u32> {
        let mut q = from;
        for &l in word {
            q = self.step(q, l)?;
        }
        Some(q)
    }

    /// Whether the DFA accepts `word`.
    pub fn accepts(&self, word: &[Letter]) -> bool {
        match self.run_from(self.initial, word) {
            Some(q) => self.is_final[q as usize],
            None => false,
        }
    }

    /// The paper's size measure `|Q| + |Σ| + Σ |δ(q,a)|`.
    pub fn size(&self) -> usize {
        self.num_states + self.alphabet_size + self.table.iter().filter(|t| t.is_some()).count()
    }

    /// Whether the transition table is total.
    pub fn is_complete(&self) -> bool {
        self.table.iter().all(Option::is_some)
    }

    /// Returns a complete DFA for the same language (adds a sink if needed).
    pub fn complete(&self) -> Dfa {
        if self.is_complete() {
            return self.clone();
        }
        let mut d = self.clone();
        let sink = d.add_state();
        for q in 0..d.num_states as u32 {
            for l in 0..d.alphabet_size as u32 {
                if d.step(q, l).is_none() {
                    d.set_transition(q, l, sink);
                }
            }
        }
        d
    }

    /// Returns the complement DFA (completes first).
    pub fn complement(&self) -> Dfa {
        let mut d = self.complete();
        for q in 0..d.num_states {
            d.is_final[q] = !d.is_final[q];
        }
        d
    }

    /// Product construction; final states chosen by `both` applied to the
    /// pair of finality flags. `both = |a, b| a && b` is intersection,
    /// `|a, b| a || b` union (requires completeness for union to be correct,
    /// which this method ensures internally).
    pub fn product(&self, other: &Dfa, both: impl Fn(bool, bool) -> bool) -> Dfa {
        assert_eq!(self.alphabet_size, other.alphabet_size, "alphabet mismatch");
        let a = self.complete();
        let b = other.complete();
        let mut d = Dfa::new(self.alphabet_size);
        // Map packed (qa, qb) -> product state, built on the fly (reachable
        // part). Pairs are single u64 keys under an Fx map: no tuple hashing.
        let pack = |qa: u32, qb: u32| (u64::from(qa) << 32) | u64::from(qb);
        let mut map: xmlta_base::FxHashMap<u64, u32> = xmlta_base::FxHashMap::default();
        map.insert(pack(a.initial, b.initial), 0u32);
        if both(
            a.is_final[a.initial as usize],
            b.is_final[b.initial as usize],
        ) {
            d.set_final(0);
        }
        let mut queue = VecDeque::from([(a.initial, b.initial)]);
        while let Some((qa, qb)) = queue.pop_front() {
            let from = map[&pack(qa, qb)];
            for l in 0..self.alphabet_size as u32 {
                let ra = a.step(qa, l).expect("complete");
                let rb = b.step(qb, l).expect("complete");
                let to = *map.entry(pack(ra, rb)).or_insert_with(|| {
                    let s = d.add_state();
                    if both(a.is_final[ra as usize], b.is_final[rb as usize]) {
                        d.set_final(s);
                    }
                    queue.push_back((ra, rb));
                    s
                });
                d.set_transition(from, l, to);
            }
        }
        d
    }

    /// Intersection of the two languages.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && b)
    }

    /// Union of the two languages.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a || b)
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        self.shortest_word().is_none()
    }

    /// Returns a shortest accepted word, if any.
    pub fn shortest_word(&self) -> Option<Vec<Letter>> {
        let mut seen = vec![false; self.num_states];
        let mut parent: Vec<Option<(u32, Letter)>> = vec![None; self.num_states];
        seen[self.initial as usize] = true;
        let mut queue = VecDeque::from([self.initial]);
        let mut hit = None;
        while let Some(q) = queue.pop_front() {
            if self.is_final[q as usize] {
                hit = Some(q);
                break;
            }
            for l in 0..self.alphabet_size as u32 {
                if let Some(r) = self.step(q, l) {
                    if !seen[r as usize] {
                        seen[r as usize] = true;
                        parent[r as usize] = Some((q, l));
                        queue.push_back(r);
                    }
                }
            }
        }
        let mut q = hit?;
        let mut word = Vec::new();
        while let Some((p, l)) = parent[q as usize] {
            word.push(l);
            q = p;
        }
        word.reverse();
        Some(word)
    }

    /// Whether `L(self) ⊆ L(other)`.
    pub fn contains_in(&self, other: &Dfa) -> bool {
        self.intersect(&other.complement()).is_empty()
    }

    /// Returns a word in `L(self) \ L(other)`, if any.
    pub fn inclusion_counterexample(&self, other: &Dfa) -> Option<Vec<Letter>> {
        self.intersect(&other.complement()).shortest_word()
    }

    /// Whether the two DFAs accept the same language.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.contains_in(other) && other.contains_in(self)
    }

    /// Converts to an NFA (for algorithms that take NFAs).
    pub fn to_nfa(&self) -> Nfa {
        let mut n = Nfa::new(self.alphabet_size);
        for _ in 0..self.num_states {
            n.add_state();
        }
        n.set_initial(self.initial);
        for q in 0..self.num_states as u32 {
            if self.is_final[q as usize] {
                n.set_final(q);
            }
            for l in 0..self.alphabet_size as u32 {
                if let Some(r) = self.step(q, l) {
                    n.add_transition(q, l, r);
                }
            }
        }
        n
    }

    /// Behavior of the DFA on `word`: the partial function `Q → Q` it
    /// induces, as a vector (`None` = the run dies). This is the primitive
    /// used by the Lemma 14 profile engine in `typecheck-core`.
    pub fn behavior(&self, word: &[Letter]) -> Vec<Option<u32>> {
        (0..self.num_states as u32)
            .map(|q| self.run_from(q, word))
            .collect()
    }
}

impl fmt::Debug for Dfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dfa({} states, {} letters, init={}, F={:?})",
            self.num_states,
            self.alphabet_size,
            self.initial,
            (0..self.num_states as u32)
                .filter(|&q| self.is_final[q as usize])
                .collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DFA for a*b over {a=0, b=1}.
    fn a_star_b() -> Dfa {
        let mut d = Dfa::new(2);
        let q1 = d.add_state();
        d.set_transition(0, 0, 0);
        d.set_transition(0, 1, q1);
        d.set_final(q1);
        d
    }

    #[test]
    fn accepts_basic() {
        let d = a_star_b();
        assert!(d.accepts(&[1]));
        assert!(d.accepts(&[0, 0, 1]));
        assert!(!d.accepts(&[]));
        assert!(!d.accepts(&[0, 1, 0]));
        assert!(!d.accepts(&[1, 1]));
    }

    #[test]
    fn complement_flips_membership() {
        let d = a_star_b();
        let c = d.complement();
        for w in [vec![], vec![1], vec![0, 1], vec![1, 1], vec![0, 0]] {
            assert_eq!(d.accepts(&w), !c.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn product_intersection_union() {
        let d1 = a_star_b(); // a*b
        let d2 = Dfa::single_word(2, &[1]); // exactly "b"
        let i = d1.intersect(&d2);
        assert!(i.accepts(&[1]));
        assert!(!i.accepts(&[0, 1]));
        let u = d1.union(&d2);
        assert!(u.accepts(&[0, 1]));
        assert!(u.accepts(&[1]));
        assert!(!u.accepts(&[0]));
    }

    #[test]
    fn containment() {
        let small = Dfa::single_word(2, &[1]);
        let big = a_star_b();
        assert!(small.contains_in(&big));
        assert!(!big.contains_in(&small));
        assert_eq!(big.inclusion_counterexample(&small), Some(vec![0, 1]));
    }

    #[test]
    fn shortest_word_bfs() {
        let d = a_star_b();
        assert_eq!(d.shortest_word(), Some(vec![1]));
        assert_eq!(Dfa::empty_language(2).shortest_word(), None);
        assert_eq!(Dfa::epsilon_only(2).shortest_word(), Some(vec![]));
    }

    #[test]
    fn behavior_composition() {
        let d = a_star_b();
        let b1 = d.behavior(&[0]);
        assert_eq!(b1[0], Some(0));
        assert_eq!(b1[1], None); // q1 has no outgoing transitions
        let b2 = d.behavior(&[1]);
        assert_eq!(b2[0], Some(1));
    }

    #[test]
    fn to_nfa_preserves_language() {
        let d = a_star_b();
        let n = d.to_nfa();
        for w in [vec![], vec![1], vec![0, 1], vec![1, 1]] {
            assert_eq!(d.accepts(&w), n.accepts(&w));
        }
    }

    #[test]
    fn universal_and_empty() {
        assert!(Dfa::universal(2).accepts(&[0, 1, 1, 0]));
        assert!(Dfa::universal(2).accepts(&[]));
        assert!(Dfa::empty_language(2).is_empty());
        assert!(!Dfa::universal(2).is_empty());
    }
}
