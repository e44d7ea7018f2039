//! Emptiness and witness generation for NTA(NFA) (Proposition 4(2,3)).
//!
//! Implements the fixpoint of Figure A.1: a state `q` is *reachable* iff
//! `δ(q, a) ∩ R* ≠ ∅` for some `a`, where `R` is the set of already
//! reachable states; the language is empty iff no final state is reachable.
//! Witness bookkeeping turns the fixpoint into the PTIME tree-generation
//! procedure of Proposition 4(3): each reachable state remembers one symbol
//! and one children-string of reachable states, forming a DAG whose
//! expansion (memoized, size-capped) is a member of the language.

use crate::nta::Nta;
use xmlta_base::{FxHashMap, Symbol};
use xmlta_tree::Tree;

/// The result of the reachability fixpoint.
#[derive(Debug, Clone)]
pub struct Reachability {
    /// `reachable[q]` — some tree drives the automaton into `q` at its root.
    pub reachable: Vec<bool>,
    /// For each reachable `q`, a witness `(a, children-states)`.
    pub witness: Vec<Option<(Symbol, Vec<u32>)>>,
}

impl Reachability {
    /// Expands the witness of state `q` into a tree whose root reaches
    /// `q`, charging its nodes to `budget`. `None` when `q` is unreachable
    /// or the tree does not fit in what is left of the budget.
    pub fn tree_for_state(&self, q: u32, budget: &mut usize) -> Option<Tree> {
        if !self.reachable[q as usize] {
            return None;
        }
        expand(self, q, &mut FxHashMap::default(), budget)
    }
}

/// Runs the Figure A.1 fixpoint.
pub fn reachable_states(nta: &Nta) -> Reachability {
    let n = nta.num_states();
    let mut reachable = vec![false; n];
    let mut witness: Vec<Option<(Symbol, Vec<u32>)>> = vec![None; n];
    loop {
        let mut changed = false;
        for (q, a, nfa) in nta.transitions() {
            if reachable[q as usize] {
                continue;
            }
            if let Some(word) = nfa.shortest_word_restricted(|l| reachable[l as usize]) {
                reachable[q as usize] = true;
                witness[q as usize] = Some((a, word));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Reachability { reachable, witness }
}

/// Whether `L(B) = ∅`.
pub fn is_empty(nta: &Nta) -> bool {
    let r = reachable_states(nta);
    !nta.final_states().any(|q| r.reachable[q as usize])
}

/// Generates a tree in `L(B)`, or `None` when the language is empty or the
/// smallest witness would exceed `node_cap` nodes.
///
/// The witness DAG can describe trees of exponential size in `|B|` (the
/// paper only promises a *description* in PTIME); `node_cap` bounds the
/// explicit expansion.
pub fn witness_tree(nta: &Nta, node_cap: usize) -> Option<Tree> {
    let r = reachable_states(nta);
    let root = nta.final_states().find(|&q| r.reachable[q as usize])?;
    r.tree_for_state(root, &mut { node_cap })
}

/// Expands the witness for state `q` into an explicit tree.
fn expand(
    r: &Reachability,
    q: u32,
    memo: &mut FxHashMap<u32, Tree>,
    budget: &mut usize,
) -> Option<Tree> {
    if let Some(t) = memo.get(&q) {
        let n = t.num_nodes();
        if *budget < n {
            return None;
        }
        *budget -= n;
        return Some(t.clone());
    }
    let (a, children_states) = r.witness[q as usize].clone()?;
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    let mut children = Vec::with_capacity(children_states.len());
    for c in children_states {
        children.push(expand(r, c, memo, budget)?);
    }
    let t = Tree::node(a, children);
    memo.insert(q, t.clone());
    Some(t)
}

/// A compact description of a witness: for each state used, the symbol and
/// children states. This is the "description of some tree t ∈ L(N)" of
/// Proposition 4(3) and stays polynomial even when the tree itself does not.
pub type WitnessDag = FxHashMap<u32, (Symbol, Vec<u32>)>;

/// Computes a [`WitnessDag`] rooted at an accepting reachable state.
pub fn witness_dag(nta: &Nta) -> Option<(u32, WitnessDag)> {
    let r = reachable_states(nta);
    let root = nta.final_states().find(|&q| r.reachable[q as usize])?;
    let mut dag = FxHashMap::default();
    let mut stack = vec![root];
    while let Some(q) = stack.pop() {
        if dag.contains_key(&q) {
            continue;
        }
        let (a, children) = r.witness[q as usize].clone()?;
        for &c in &children {
            stack.push(c);
        }
        dag.insert(q, (a, children));
    }
    Some((root, dag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlta_automata::Nfa;
    use xmlta_base::Alphabet;

    fn simple_nta() -> (Alphabet, Nta) {
        // Trees of the form b(a … a) (at least one a), plus bare leaf `a`
        // recognised in a non-final state.
        let a = Alphabet::from_names(["a", "b"]);
        let mut nta = Nta::new(2);
        let qa = nta.add_state();
        let qb = nta.add_state();
        nta.set_transition(qa, a.sym("a"), Nfa::single_word(2, &[]));
        let mut plus = Nfa::new(2);
        let s0 = plus.add_state();
        let s1 = plus.add_state();
        plus.set_initial(s0);
        plus.set_final(s1);
        plus.add_transition(s0, qa, s1);
        plus.add_transition(s1, qa, s1);
        nta.set_transition(qb, a.sym("b"), plus);
        nta.set_final(qb);
        (a, nta)
    }

    #[test]
    fn nonempty_with_witness() {
        let (al, nta) = simple_nta();
        assert!(!is_empty(&nta));
        let t = witness_tree(&nta, 1000).expect("witness");
        assert!(nta.accepts(&t));
        assert_eq!(al.name(t.label), "b");
        assert_eq!(t.num_nodes(), 2); // b(a) is minimal
    }

    #[test]
    fn empty_when_no_final_reachable() {
        let (_, mut nta) = simple_nta();
        // Add an unreachable final state demanding an impossible child.
        let dead = nta.add_state();
        let mut need_dead = Nfa::new(nta.num_states());
        let s0 = need_dead.add_state();
        let s1 = need_dead.add_state();
        need_dead.set_initial(s0);
        need_dead.set_final(s1);
        need_dead.add_transition(s0, dead, s1);
        nta.set_transition(dead, Symbol(0), need_dead);
        // Only `dead` final now.
        let mut nta2 = Nta::new(2);
        nta2.add_states(nta.num_states());
        for (q, a, nfa) in nta.transitions() {
            nta2.set_transition(q, a, nfa.clone());
        }
        nta2.set_final(dead);
        assert!(is_empty(&nta2));
        assert!(witness_tree(&nta2, 1000).is_none());
    }

    #[test]
    fn witness_dag_is_wellformed() {
        let (_, nta) = simple_nta();
        let (root, dag) = witness_dag(&nta).expect("non-empty");
        assert!(dag.contains_key(&root));
        for (_, children) in dag.values() {
            for c in children {
                assert!(dag.contains_key(c), "child state {c} missing from DAG");
            }
        }
    }

    #[test]
    fn node_cap_limits_expansion() {
        let (_, nta) = simple_nta();
        assert!(witness_tree(&nta, 1).is_none()); // needs 2 nodes
        assert!(witness_tree(&nta, 2).is_some());
    }
}
