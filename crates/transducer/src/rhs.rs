//! Right-hand sides of transducer rules.

use xmlta_base::{Alphabet, Symbol};

/// A transducer state id.
pub type StateId = u32;

/// A node of a rule's right-hand side: an element of `H_Σ(Q ∪ (Q × P))` —
/// hedges over Σ whose leaves may carry states or state–selector pairs
/// (Sections 2.3 and 4).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RhsNode {
    /// An output element with nested right-hand-side children.
    Elem(Symbol, Vec<RhsNode>),
    /// A state leaf `q`: replaced by the translations of the input node's
    /// children in state `q`.
    State(StateId),
    /// A state–selector pair `⟨q, P⟩`: replaced by the translations of the
    /// nodes selected by `P` (Section 4). The selector is interned in the
    /// transducer; this stores its index.
    Select(StateId, u32),
}

/// A right-hand side: a hedge of [`RhsNode`]s.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Rhs {
    /// Top-level nodes, in output order.
    pub nodes: Vec<RhsNode>,
}

impl Rhs {
    /// An empty right-hand side (outputs nothing).
    pub fn empty() -> Rhs {
        Rhs::default()
    }

    /// Builds from nodes.
    pub fn new(nodes: Vec<RhsNode>) -> Rhs {
        Rhs { nodes }
    }

    /// Number of nodes (the paper's `|rhs(q, a)|`).
    pub fn size(&self) -> usize {
        fn count(n: &RhsNode) -> usize {
            match n {
                RhsNode::Elem(_, cs) => 1 + cs.iter().map(count).sum::<usize>(),
                RhsNode::State(_) | RhsNode::Select(_, _) => 1,
            }
        }
        self.nodes.iter().map(count).sum()
    }

    /// The states occurring at the *top level* (the paper's states in
    /// `top(rhs)` — the deleting occurrences). Selector pairs never delete:
    /// they are counted separately.
    pub fn top_states(&self) -> Vec<StateId> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                RhsNode::State(q) => Some(*q),
                _ => None,
            })
            .collect()
    }

    /// All state occurrences (both bare and selector pairs), anywhere.
    pub fn all_state_occurrences(&self) -> Vec<StateId> {
        let mut out = Vec::new();
        fn go(n: &RhsNode, out: &mut Vec<StateId>) {
            match n {
                RhsNode::Elem(_, cs) => cs.iter().for_each(|c| go(c, out)),
                RhsNode::State(q) | RhsNode::Select(q, _) => out.push(*q),
            }
        }
        self.nodes.iter().for_each(|n| go(n, &mut out));
        out
    }

    /// Whether any node is a selector pair.
    pub fn has_selectors(&self) -> bool {
        fn go(n: &RhsNode) -> bool {
            match n {
                RhsNode::Elem(_, cs) => cs.iter().any(go),
                RhsNode::Select(_, _) => true,
                RhsNode::State(_) => false,
            }
        }
        self.nodes.iter().any(go)
    }

    /// The maximum number of state occurrences in any sequence of siblings —
    /// the contribution of this rhs to the copying width `C`.
    pub fn max_states_among_siblings(&self) -> usize {
        fn sibling_count(nodes: &[RhsNode]) -> usize {
            nodes
                .iter()
                .filter(|n| matches!(n, RhsNode::State(_) | RhsNode::Select(_, _)))
                .count()
        }
        fn go(nodes: &[RhsNode], best: &mut usize) {
            *best = (*best).max(sibling_count(nodes));
            for n in nodes {
                if let RhsNode::Elem(_, cs) = n {
                    go(cs, best);
                }
            }
        }
        let mut best = 0;
        go(&self.nodes, &mut best);
        best
    }

    /// Whether the rhs is a single tree whose root is an element — the shape
    /// required for rules of the initial state (`T_Σ(Q) \ Q`).
    pub fn is_rooted_tree(&self) -> bool {
        matches!(self.nodes.as_slice(), [RhsNode::Elem(_, _)])
    }

    /// Renders through an alphabet and state names.
    pub fn display(&self, alphabet: &Alphabet, state_names: &[String]) -> String {
        fn go(n: &RhsNode, a: &Alphabet, names: &[String], out: &mut String) {
            match n {
                RhsNode::Elem(s, cs) => {
                    out.push_str(a.name(*s));
                    if !cs.is_empty() {
                        out.push('(');
                        for (i, c) in cs.iter().enumerate() {
                            if i > 0 {
                                out.push(' ');
                            }
                            go(c, a, names, out);
                        }
                        out.push(')');
                    }
                }
                RhsNode::State(q) => out.push_str(&names[*q as usize]),
                RhsNode::Select(q, sel) => {
                    out.push('<');
                    out.push_str(&names[*q as usize]);
                    out.push_str(&format!(", sel#{sel}>"));
                }
            }
        }
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            go(n, alphabet, state_names, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Rhs {
        // c(p q) r — where p=0, q=1, r is element
        let mut a = Alphabet::new();
        let c = a.intern("c");
        let r = a.intern("r");
        Rhs::new(vec![
            RhsNode::Elem(c, vec![RhsNode::State(0), RhsNode::State(1)]),
            RhsNode::Elem(r, vec![]),
        ])
    }

    #[test]
    fn size_counts_all_nodes() {
        assert_eq!(sample().size(), 4);
        assert_eq!(Rhs::empty().size(), 0);
    }

    #[test]
    fn top_states_only_top_level() {
        let rhs = sample();
        assert!(rhs.top_states().is_empty());
        let deleting = Rhs::new(vec![RhsNode::State(2), sample().nodes[0].clone()]);
        assert_eq!(deleting.top_states(), vec![2]);
    }

    #[test]
    fn sibling_state_count() {
        assert_eq!(sample().max_states_among_siblings(), 2);
        let flat = Rhs::new(vec![
            RhsNode::State(0),
            RhsNode::State(1),
            RhsNode::State(2),
        ]);
        assert_eq!(flat.max_states_among_siblings(), 3);
        assert_eq!(Rhs::empty().max_states_among_siblings(), 0);
    }

    #[test]
    fn rooted_tree_shape() {
        assert!(!sample().is_rooted_tree()); // two top nodes
        let single = Rhs::new(vec![sample().nodes[0].clone()]);
        assert!(single.is_rooted_tree());
        let bare_state = Rhs::new(vec![RhsNode::State(0)]);
        assert!(!bare_state.is_rooted_tree());
    }
}
