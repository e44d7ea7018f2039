//! Non-deterministic finite automata (Section 2 of the paper).

use crate::Letter;
use std::collections::VecDeque;
use std::fmt;

/// A non-deterministic finite automaton `N = (Q, Σ, δ, I, F)`.
///
/// States are dense `u32` ids; letters are dense `u32` ids below
/// [`Nfa::alphabet_size`]. Following the paper, an NFA may have several
/// initial states and its size is `|Q| + |Σ| + Σ_{q,a} |δ(q,a)|`.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Nfa {
    alphabet_size: usize,
    /// Adjacency: `edges[q]` lists `(letter, target)` pairs.
    edges: Vec<Vec<(Letter, u32)>>,
    initial: Vec<u32>,
    is_final: Vec<bool>,
}

impl Nfa {
    /// Creates an empty NFA over an alphabet of `alphabet_size` letters.
    pub fn new(alphabet_size: usize) -> Self {
        Nfa {
            alphabet_size,
            edges: Vec::new(),
            initial: Vec::new(),
            is_final: Vec::new(),
        }
    }

    /// Creates an NFA that accepts exactly the given single word.
    pub fn single_word(alphabet_size: usize, word: &[Letter]) -> Self {
        let mut n = Nfa::new(alphabet_size);
        let mut prev = n.add_state();
        n.set_initial(prev);
        for &l in word {
            let next = n.add_state();
            n.add_transition(prev, l, next);
            prev = next;
        }
        n.set_final(prev);
        n
    }

    /// Creates an NFA accepting the empty language.
    pub fn empty_language(alphabet_size: usize) -> Self {
        let mut n = Nfa::new(alphabet_size);
        let q = n.add_state();
        n.set_initial(q);
        n
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.edges.len()
    }

    /// Alphabet size.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// Grows the alphabet to at least `n` letters (no transitions change).
    pub fn grow_alphabet(&mut self, n: usize) {
        if n > self.alphabet_size {
            self.alphabet_size = n;
        }
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> u32 {
        let id = self.edges.len() as u32;
        self.edges.push(Vec::new());
        self.is_final.push(false);
        id
    }

    /// Marks `q` initial.
    pub fn set_initial(&mut self, q: u32) {
        if !self.initial.contains(&q) {
            self.initial.push(q);
        }
    }

    /// Marks `q` final.
    pub fn set_final(&mut self, q: u32) {
        self.is_final[q as usize] = true;
    }

    /// Unmarks `q` as final.
    pub fn clear_final(&mut self, q: u32) {
        self.is_final[q as usize] = false;
    }

    /// Adds the transition `q --l--> r`.
    pub fn add_transition(&mut self, q: u32, l: Letter, r: u32) {
        debug_assert!((l as usize) < self.alphabet_size, "letter out of range");
        if !self.edges[q as usize].contains(&(l, r)) {
            self.edges[q as usize].push((l, r));
        }
    }

    /// The initial states.
    pub fn initial_states(&self) -> &[u32] {
        &self.initial
    }

    /// Whether `q` is final.
    pub fn is_final_state(&self, q: u32) -> bool {
        self.is_final[q as usize]
    }

    /// Iterates over the final states.
    pub fn final_states(&self) -> impl Iterator<Item = u32> + '_ {
        self.is_final
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| if f { Some(i as u32) } else { None })
    }

    /// Outgoing transitions of `q`.
    pub fn transitions_from(&self, q: u32) -> &[(Letter, u32)] {
        &self.edges[q as usize]
    }

    /// Iterates over all transitions `(from, letter, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (u32, Letter, u32)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .flat_map(|(q, es)| es.iter().map(move |&(l, r)| (q as u32, l, r)))
    }

    /// The paper's size measure `|Q| + |Σ| + Σ |δ(q,a)|`.
    pub fn size(&self) -> usize {
        self.num_states() + self.alphabet_size + self.edges.iter().map(Vec::len).sum::<usize>()
    }

    /// The set of states reachable from the initial states by `word`.
    pub fn run(&self, word: &[Letter]) -> Vec<u32> {
        let mut cur: Vec<u32> = self.initial.clone();
        cur.sort_unstable();
        cur.dedup();
        for &l in word {
            let mut next: Vec<u32> = Vec::new();
            for &q in &cur {
                for &(el, r) in &self.edges[q as usize] {
                    if el == l {
                        next.push(r);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            cur = next;
            if cur.is_empty() {
                break;
            }
        }
        cur
    }

    /// Whether the NFA accepts `word`.
    pub fn accepts(&self, word: &[Letter]) -> bool {
        self.run(word).iter().any(|&q| self.is_final[q as usize])
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        self.shortest_word_restricted(|_| true).is_none()
    }

    /// Returns a shortest accepted word, if any.
    pub fn shortest_word(&self) -> Option<Vec<Letter>> {
        self.shortest_word_restricted(|_| true)
    }

    /// Returns a shortest word accepted using only letters satisfying
    /// `allowed`, if any.
    ///
    /// This is the primitive behind the unranked tree-automaton emptiness
    /// algorithm (Proposition 4): checking `δ(q,a) ∩ R* ≠ ∅` is exactly a
    /// reachability query in the NFA restricted to the letters in `R`.
    pub fn shortest_word_restricted(
        &self,
        mut allowed: impl FnMut(Letter) -> bool,
    ) -> Option<Vec<Letter>> {
        // BFS over states; parent pointers reconstruct the witness.
        let n = self.num_states();
        let mut seen = vec![false; n];
        let mut parent: Vec<Option<(u32, Letter)>> = vec![None; n];
        let mut queue = VecDeque::new();
        for &q in &self.initial {
            if !seen[q as usize] {
                seen[q as usize] = true;
                queue.push_back(q);
            }
        }
        let mut hit = None;
        'bfs: while let Some(q) = queue.pop_front() {
            if self.is_final[q as usize] {
                hit = Some(q);
                break 'bfs;
            }
            for &(l, r) in &self.edges[q as usize] {
                if !seen[r as usize] && allowed(l) {
                    seen[r as usize] = true;
                    parent[r as usize] = Some((q, l));
                    queue.push_back(r);
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

    /// Whether some accepted word (over `allowed` letters) exists.
    pub fn accepts_some_restricted(&self, allowed: impl FnMut(Letter) -> bool) -> bool {
        self.shortest_word_restricted(allowed).is_some()
    }

    /// Whether the restriction of the language to `allowed` letters is
    /// infinite. True iff some accepting path goes through a cycle.
    pub fn restricted_language_is_infinite(&self, mut allowed: impl FnMut(Letter) -> bool) -> bool {
        // Trim to states reachable from initial and co-reachable to final
        // using allowed letters only, then look for any cycle.
        let n = self.num_states();
        let mut fwd = vec![false; n];
        let mut stack: Vec<u32> = self.initial.clone();
        for &q in &stack {
            fwd[q as usize] = true;
        }
        let mut allowed_edge = vec![Vec::new(); n];
        for (q, edges) in self.edges.iter().enumerate() {
            for &(l, r) in edges {
                if allowed(l) {
                    allowed_edge[q].push(r);
                }
            }
        }
        while let Some(q) = stack.pop() {
            for &r in &allowed_edge[q as usize] {
                if !fwd[r as usize] {
                    fwd[r as usize] = true;
                    stack.push(r);
                }
            }
        }
        let mut bwd = vec![false; n];
        let mut rev = vec![Vec::new(); n];
        for (q, targets) in allowed_edge.iter().enumerate() {
            for &r in targets {
                rev[r as usize].push(q as u32);
            }
        }
        let mut stack: Vec<u32> = (0..n as u32)
            .filter(|&q| self.is_final[q as usize])
            .collect();
        for &q in &stack {
            bwd[q as usize] = true;
        }
        while let Some(q) = stack.pop() {
            for &r in &rev[q as usize] {
                if !bwd[r as usize] {
                    bwd[r as usize] = true;
                    stack.push(r);
                }
            }
        }
        let useful: Vec<bool> = (0..n).map(|q| fwd[q] && bwd[q]).collect();
        // Cycle detection among useful states via Kahn's algorithm: if the
        // useful subgraph cannot be fully topologically sorted, it has a
        // cycle, and any cycle through a useful state pumps the language.
        let mut indeg = vec![0usize; n];
        let mut live = 0usize;
        for q in 0..n {
            if !useful[q] {
                continue;
            }
            live += 1;
            for &r in &allowed_edge[q] {
                if useful[r as usize] {
                    indeg[r as usize] += 1;
                }
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&q| useful[q] && indeg[q] == 0).collect();
        let mut removed = 0usize;
        while let Some(q) = queue.pop_front() {
            removed += 1;
            for &r in &allowed_edge[q] {
                let r = r as usize;
                if useful[r] {
                    indeg[r] -= 1;
                    if indeg[r] == 0 {
                        queue.push_back(r);
                    }
                }
            }
        }
        removed < live
    }

    /// Builds the union of two NFAs over the same alphabet (disjoint union of
    /// state spaces, both initial sets kept).
    pub fn union(&self, other: &Nfa) -> Nfa {
        assert_eq!(self.alphabet_size, other.alphabet_size, "alphabet mismatch");
        let mut out = self.clone();
        let offset = out.num_states() as u32;
        for q in 0..other.num_states() as u32 {
            let nq = out.add_state();
            debug_assert_eq!(nq, q + offset);
            if other.is_final[q as usize] {
                out.set_final(nq);
            }
        }
        for (q, l, r) in other.transitions() {
            out.add_transition(q + offset, l, r + offset);
        }
        for &q in &other.initial {
            out.set_initial(q + offset);
        }
        out
    }

    /// Builds the concatenation `L(self) · L(other)`.
    pub fn concat(&self, other: &Nfa) -> Nfa {
        assert_eq!(self.alphabet_size, other.alphabet_size, "alphabet mismatch");
        let mut out = Nfa::new(self.alphabet_size);
        for q in 0..self.num_states() {
            let nq = out.add_state();
            debug_assert_eq!(nq as usize, q);
        }
        let offset = self.num_states() as u32;
        for _ in 0..other.num_states() {
            out.add_state();
        }
        for (q, l, r) in self.transitions() {
            out.add_transition(q, l, r);
        }
        for (q, l, r) in other.transitions() {
            out.add_transition(q + offset, l, r + offset);
        }
        for &q in &self.initial {
            out.set_initial(q);
        }
        // Glue: from any state with an edge into a final state of `self`,
        // also jump into successors of `other`'s initial states. Simpler and
        // standard: replicate initial edges of `other` from finals of `self`.
        for f in self.final_states() {
            for &i in &other.initial {
                for &(l, r) in &other.edges[i as usize] {
                    out.add_transition(f, l, r + offset);
                }
            }
        }
        // Final states: `other`'s finals; plus `self`'s finals when `other`
        // accepts ε.
        for f in other.final_states() {
            out.set_final(f + offset);
        }
        if other.initial.iter().any(|&i| other.is_final[i as usize]) {
            for f in self.final_states() {
                out.set_final(f);
            }
        }
        out
    }

    /// Renders the NFA in Graphviz dot format, with letters printed via `f`.
    pub fn to_dot(&self, mut letter_name: impl FnMut(Letter) -> String) -> String {
        let mut s = String::from("digraph nfa {\n  rankdir=LR;\n");
        for q in 0..self.num_states() as u32 {
            let shape = if self.is_final[q as usize] {
                "doublecircle"
            } else {
                "circle"
            };
            s.push_str(&format!("  q{q} [shape={shape}];\n"));
        }
        for &q in &self.initial {
            s.push_str(&format!("  start{q} [shape=point]; start{q} -> q{q};\n"));
        }
        for (q, l, r) in self.transitions() {
            s.push_str(&format!("  q{q} -> q{r} [label=\"{}\"];\n", letter_name(l)));
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Debug for Nfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Nfa({} states, {} letters, {} transitions, I={:?}, F={:?})",
            self.num_states(),
            self.alphabet_size,
            self.transitions().count(),
            self.initial,
            self.final_states().collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NFA for (ab)* over {a=0, b=1}.
    fn ab_star() -> Nfa {
        let mut n = Nfa::new(2);
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.set_initial(q0);
        n.set_final(q0);
        n.add_transition(q0, 0, q1);
        n.add_transition(q1, 1, q0);
        n
    }

    #[test]
    fn accepts_ab_star() {
        let n = ab_star();
        assert!(n.accepts(&[]));
        assert!(n.accepts(&[0, 1]));
        assert!(n.accepts(&[0, 1, 0, 1]));
        assert!(!n.accepts(&[0]));
        assert!(!n.accepts(&[1, 0]));
    }

    #[test]
    fn shortest_word_is_shortest() {
        let mut n = Nfa::new(2);
        let q0 = n.add_state();
        let q1 = n.add_state();
        let q2 = n.add_state();
        n.set_initial(q0);
        n.add_transition(q0, 0, q1);
        n.add_transition(q1, 0, q2);
        n.add_transition(q0, 1, q2);
        n.set_final(q2);
        assert_eq!(n.shortest_word(), Some(vec![1]));
    }

    #[test]
    fn restricted_emptiness() {
        let n = ab_star();
        // (ab)* accepts ε, which needs no letters at all.
        assert!(n.accepts_some_restricted(|_| false));
        // Move the final state to q1: now a word must end in `a`.
        let mut n2 = n.clone();
        n2.clear_final(0);
        n2.set_final(1);
        // Restricted to letter `b` only, no accepting path exists.
        assert!(!n2.accepts_some_restricted(|l| l == 1));
        assert_eq!(n2.shortest_word_restricted(|l| l == 0), Some(vec![0]));
        assert_eq!(n2.shortest_word(), Some(vec![0]));
    }

    #[test]
    fn single_word_automaton() {
        let n = Nfa::single_word(3, &[2, 0, 1]);
        assert!(n.accepts(&[2, 0, 1]));
        assert!(!n.accepts(&[2, 0]));
        assert!(!n.accepts(&[]));
        assert_eq!(n.shortest_word(), Some(vec![2, 0, 1]));
    }

    #[test]
    fn union_accepts_both() {
        let a = Nfa::single_word(2, &[0]);
        let b = Nfa::single_word(2, &[1, 1]);
        let u = a.union(&b);
        assert!(u.accepts(&[0]));
        assert!(u.accepts(&[1, 1]));
        assert!(!u.accepts(&[1]));
    }

    #[test]
    fn concat_works() {
        let a = Nfa::single_word(2, &[0]);
        let b = Nfa::single_word(2, &[1]);
        let c = a.concat(&b);
        assert!(c.accepts(&[0, 1]));
        assert!(!c.accepts(&[0]));
        assert!(!c.accepts(&[1]));
        // ε on the right keeps left finals.
        let eps = Nfa::single_word(2, &[]);
        let d = a.concat(&eps);
        assert!(d.accepts(&[0]));
    }

    #[test]
    fn infinite_restricted_language_detection() {
        let n = ab_star();
        assert!(n.restricted_language_is_infinite(|_| true));
        assert!(!n.restricted_language_is_infinite(|l| l == 0));
        let single = Nfa::single_word(2, &[0, 1]);
        assert!(!single.restricted_language_is_infinite(|_| true));
    }

    #[test]
    fn empty_language_is_empty() {
        let n = Nfa::empty_language(2);
        assert!(n.is_empty());
        assert_eq!(n.shortest_word(), None);
    }

    #[test]
    fn size_measure() {
        let n = ab_star();
        assert_eq!(n.size(), 2 + 2 + 2);
    }
}
