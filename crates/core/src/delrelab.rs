//! The Theorem 20 engine: deleting relabelings against bottom-up
//! deterministic complete tree automata (`TC[T_del-relab, DTAc(DFA)]`).
//!
//! Pipeline, following the paper:
//!
//! 1. **`#`-wrapping** — replace every rhs by a single-rooted tree over
//!    `Σ ∪ {#}`: deleting/hedge right-hand sides become `#(…)` and missing
//!    rules become `#()`, so the resulting transducer `T'` is total,
//!    non-deleting, and single-rooted, with `γ(T'(t)) = T(t)` for the
//!    `#`-eliminating function `γ`.
//! 2. **Lemma 19** — build `B_in` with `L(B_in) = T'(L(A_in))` by the
//!    product construction over states `(a, q_A, q_T, u ∈ Dom(rhs))`.
//! 3. **`#`-elimination** — build `B_out` accepting `t` over `Σ ∪ {#}` iff
//!    `γ(t)` is *not* a single tree accepted by `A_out`; `#`-nodes carry
//!    jump pairs `(x, y)` over the transition-automaton state space, and a
//!    virtual-root component checks "exactly one accepted root".
//! 4. **On-the-fly product emptiness** (Proposition 4) — the instance
//!    typechecks iff `L(B_in) ∩ L(B_out) = ∅`. The product is never built:
//!    [`product::intersection_witness`] runs the emptiness fixpoint
//!    bottom-up over the pairs `(p ∈ B_in, r ∈ B_out)` that some output
//!    tree inhabits, exploring each candidate's two horizontal NFAs together
//!    and re-examining only the candidates that read a newly inhabited
//!    pair. It stops at the first inhabited pair of final states. Its
//!    witness DAG expands (up to `WITNESS_CAP` nodes) into the output
//!    tree together with `B_in`'s run on it, and that run decodes the tree
//!    back into an input counterexample. A non-empty product whose witness
//!    does not fit under the cap is a [`TypecheckError::ResourceLimit`],
//!    never a "typechecks".

use crate::{CounterExample, Outcome, TypecheckError};
use xmlta_automata::Nfa;
use xmlta_base::{FxHashMap, Symbol};
use xmlta_schema::emptiness::{reachable_states, Reachability};
use xmlta_schema::{dta, product, Nta};
use xmlta_transducer::rhs::{Rhs, RhsNode, StateId};
use xmlta_transducer::Transducer;
use xmlta_tree::Tree;

/// Node cap on the explicit trees a counterexample is built from: the
/// output witness, and (between them) the input children synthesized under
/// rules that drop them.
const WITNESS_CAP: usize = 1_000_000;

fn witness_cap_error() -> TypecheckError {
    TypecheckError::ResourceLimit("counterexample tree exceeds the expansion cap".into())
}

/// The joint alphabet size the pipeline runs over (steps 1–4 all extend it
/// by the fresh `#` symbol). Callers pre-building [`bout_product`]s must
/// key them by this value.
pub fn joint_sigma(ain: &Nta, aout: &Nta, alphabet_size: usize) -> usize {
    alphabet_size
        .max(ain.alphabet_size())
        .max(aout.alphabet_size())
}

/// Checks that `t` is in the engine's transducer class: selectors already
/// expanded, and at most one state occurrence per rhs (a deleting
/// relabeling). Cheap — run it before paying for any pipeline product.
pub fn require_delrelab(t: &Transducer) -> Result<(), TypecheckError> {
    if t.uses_selectors() {
        return Err(TypecheckError::Unsupported(
            "expand selectors before the Theorem 20 engine".into(),
        ));
    }
    for (_, _, rhs) in t.rules() {
        if rhs.all_state_occurrences().len() > 1 {
            return Err(TypecheckError::Unsupported(
                "the Theorem 20 engine requires a deleting relabeling \
                 (at most one state occurrence per rhs); use DTD schemas \
                 for more general transducers"
                    .into(),
            ));
        }
    }
    Ok(())
}

/// Checks the `DTAc` requirement on the output automaton: bottom-up
/// deterministic and complete.
pub fn require_dtac(aout: &Nta) -> Result<(), TypecheckError> {
    if !dta::is_deterministic(aout) {
        return Err(TypecheckError::Unsupported(
            "output automaton must be bottom-up deterministic; \
             determinize or complete it first"
                .into(),
        ));
    }
    if !dta::is_complete(aout) {
        return Err(TypecheckError::Unsupported(
            "output automaton must be complete; call xmlta_schema::dta::complete".into(),
        ));
    }
    Ok(())
}

/// Step 3 of the pipeline as a standalone product: the `#`-eliminated
/// complement `B_out` of `aout` over the joint alphabet `sigma` (see
/// [`joint_sigma`]). `aout` must satisfy [`require_dtac`].
///
/// The product depends only on the *output schema* — not on the input
/// schema or the transducer — and its construction (jump-pair state space
/// quadratic in the joint transition-NFA size) dominates pipeline setup,
/// which is why the service layer caches it per schema fingerprint.
pub fn bout_product(aout: &Nta, sigma: usize) -> Nta {
    hash_complement(aout, sigma, sigma + 1)
}

/// Typechecks `T ∈ T_del-relab` against NTA schemas; the output automaton
/// must be bottom-up deterministic and complete (`DTAc`).
pub fn typecheck_delrelab(
    ain: &Nta,
    aout: &Nta,
    t: &Transducer,
    alphabet_size: usize,
) -> Result<Outcome, TypecheckError> {
    let sigma = joint_sigma(ain, aout, alphabet_size);
    require_delrelab(t)?;
    require_dtac(aout)?;
    let bout = bout_product(aout, sigma);
    typecheck_delrelab_with_bout(ain, &bout, t, sigma)
}

/// [`typecheck_delrelab`] with a pre-built (possibly cached) `B_out`.
///
/// `bout` must be [`bout_product`]`(aout, sigma)` for the instance's output
/// automaton and `sigma` must be [`joint_sigma`] of the instance — the
/// `DTAc` validation of the output automaton is assumed to have happened
/// when the product was built.
pub fn typecheck_delrelab_with_bout(
    ain: &Nta,
    bout: &Nta,
    t: &Transducer,
    sigma: usize,
) -> Result<Outcome, TypecheckError> {
    require_delrelab(t)?;

    let hash = sigma; // the fresh # symbol
    let sigma2 = sigma + 1;

    // Step 1: wrap T into the total single-rooted T' over Σ ∪ {#}.
    let tp = wrap_transducer(t, sigma, hash);

    // Step 2: B_in = T'(L(A_in)).
    let (bin, meta) = forward_image(ain, tp, sigma, sigma2);

    // Step 4: on-the-fly product emptiness (step 3 is `bout`).
    let Some(witness) = product::intersection_witness(&bin, bout) else {
        return Ok(Outcome::TypeChecks);
    };
    // Decode the witness into an input counterexample through B_in's run.
    let (out_tree, run) = witness.expand(WITNESS_CAP).ok_or_else(witness_cap_error)?;
    let input = rebuild_input(&meta, ain, &out_tree, &run, 0, &mut { WITNESS_CAP })?;
    let output = t.apply(&input);
    Ok(Outcome::CounterExample(CounterExample { input, output }))
}

/// The `T'` of the pipeline: per (state, symbol) a single-rooted rhs tree.
struct Wrapped {
    /// rhs'(q, a) as a tree of rhs nodes; root is index 0 of `nodes`.
    rules: FxHashMap<(StateId, usize), WrappedRhs>,
    num_states: usize,
    initial: StateId,
}

/// A single rhs tree in flattened pre-order form.
struct WrappedRhs {
    /// Pre-order nodes: (label-or-state, children indices).
    nodes: Vec<WNode>,
}

enum WNode {
    Elem(usize, Vec<usize>),
    State(StateId),
}

fn wrap_transducer(t: &Transducer, sigma: usize, hash: usize) -> Wrapped {
    let mut rules = FxHashMap::default();
    for q in 0..t.num_states() as StateId {
        for a in 0..sigma {
            let rhs = t.rule(q, Symbol::from_index(a));
            let wrapped = match rhs {
                None => {
                    // Filler: #() — keeps T' total so every input child is
                    // observable in the image.
                    WrappedRhs {
                        nodes: vec![WNode::Elem(hash, vec![])],
                    }
                }
                Some(r) => wrap_rhs(r, hash),
            };
            rules.insert((q, a), wrapped);
        }
    }
    Wrapped {
        rules,
        num_states: t.num_states(),
        initial: t.initial_state(),
    }
}

fn wrap_rhs(rhs: &Rhs, hash: usize) -> WrappedRhs {
    let mut nodes = Vec::new();
    // Root: either the unique element root, or a # wrapper.
    match rhs.nodes.as_slice() {
        [RhsNode::Elem(s, children)] => {
            nodes.push(WNode::Elem(s.index(), Vec::new()));
            let idx: Vec<usize> = children.iter().map(|c| flatten(c, &mut nodes)).collect();
            if let WNode::Elem(_, ch) = &mut nodes[0] {
                *ch = idx;
            }
        }
        other => {
            nodes.push(WNode::Elem(hash, Vec::new()));
            let owned: Vec<RhsNode> = other.to_vec();
            let idx: Vec<usize> = owned.iter().map(|c| flatten(c, &mut nodes)).collect();
            if let WNode::Elem(_, ch) = &mut nodes[0] {
                *ch = idx;
            }
        }
    }
    WrappedRhs { nodes }
}

fn flatten(n: &RhsNode, nodes: &mut Vec<WNode>) -> usize {
    match n {
        RhsNode::Elem(s, children) => {
            let me = nodes.len();
            nodes.push(WNode::Elem(s.index(), Vec::new()));
            let idx: Vec<usize> = children.iter().map(|c| flatten(c, nodes)).collect();
            if let WNode::Elem(_, ch) = &mut nodes[me] {
                *ch = idx;
            }
            me
        }
        RhsNode::State(p) => {
            nodes.push(WNode::State(*p));
            nodes.len() - 1
        }
        RhsNode::Select(_, _) => unreachable!("selectors were expanded"),
    }
}

/// Decoding metadata for `B_in` states.
struct BinMeta {
    /// B_in state id → (a, qA, qT, rhs node index).
    decode: Vec<(usize, u32, StateId, usize)>,
    wrapped: Wrapped,
    /// The `A_in` fixpoint: which states some input tree reaches, and a
    /// witness for each — the input children a stateless rule drops.
    reach: Reachability,
}

/// Lemma 19: builds `B_in` with `L(B_in) = T'(L(A_in))`.
fn forward_image(ain: &Nta, tp: Wrapped, sigma: usize, sigma2: usize) -> (Nta, BinMeta) {
    let reach = reachable_states(ain);
    let realizable = &reach.reachable;
    let na = ain.num_states();

    // Enumerate states.
    let mut decode = Vec::new();
    let mut encode = FxHashMap::default();
    for a in 0..sigma {
        for q_a in 0..na as u32 {
            for q_t in 0..tp.num_states as StateId {
                let rhs = &tp.rules[&(q_t, a)];
                for u in 0..rhs.nodes.len() {
                    let id = decode.len() as u32;
                    decode.push((a, q_a, q_t, u));
                    encode.insert((a, q_a, q_t, u), id);
                }
            }
        }
    }

    let mut bin = Nta::new(sigma2);
    bin.add_states(decode.len());
    for (id, &(a, q_a, q_t, u)) in decode.iter().enumerate() {
        let id = id as u32;
        if u == 0 && q_t == tp.initial && ain.is_final_state(q_a) && realizable[q_a as usize] {
            bin.set_final(id);
        }
        let rhs = &tp.rules[&(q_t, a)];
        match &rhs.nodes[u] {
            WNode::State(_) => continue, // state leaves are not tree nodes
            WNode::Elem(label, children) => {
                // Split children around the (single) state leaf.
                let state_pos = children
                    .iter()
                    .position(|&c| matches!(rhs.nodes[c], WNode::State(_)));
                let word_before: Vec<u32> = children
                    .iter()
                    .take(state_pos.unwrap_or(children.len()))
                    .map(|&c| encode[&(a, q_a, q_t, c)])
                    .collect();
                let nfa = match state_pos {
                    None => {
                        // No input children observable below this rhs node.
                        // If this is the rhs root of a *stateless* rule, the
                        // input children are dropped entirely: gate on the
                        // existence of a realizable children word.
                        if u == 0 && !rhs.nodes.iter().any(|n| matches!(n, WNode::State(_))) {
                            let ok = match ain.transition(q_a, Symbol::from_index(a)) {
                                Some(nfa) => {
                                    nfa.accepts_some_restricted(|l| realizable[l as usize])
                                }
                                None => false,
                            };
                            if !ok {
                                continue; // no valid input: no transition
                            }
                        }
                        Nfa::single_word(decode.len(), &word_before)
                    }
                    Some(pos) => {
                        let word_after: Vec<u32> = children
                            .iter()
                            .skip(pos + 1)
                            .map(|&c| encode[&(a, q_a, q_t, c)])
                            .collect();
                        let q_t2 = match rhs.nodes[children[pos]] {
                            WNode::State(p) => p,
                            _ => unreachable!(),
                        };
                        // D′: the A_in transition NFA with each edge on
                        // child state q'_A replaced by edges consuming the
                        // child's output-tree root state (c, q'_A, q_t2, ε).
                        let Some(d) = ain.transition(q_a, Symbol::from_index(a)) else {
                            continue; // no input expansion: no transition
                        };
                        let mut nfa = Nfa::new(decode.len());
                        for _ in 0..d.num_states() {
                            nfa.add_state();
                        }
                        for &i in d.initial_states() {
                            nfa.set_initial(i);
                        }
                        for f in d.final_states() {
                            nfa.set_final(f);
                        }
                        for (from, qa2, to) in d.transitions() {
                            for c in 0..sigma {
                                let letter = encode[&(c, qa2, q_t2, 0)];
                                nfa.add_transition(from, letter, to);
                            }
                        }
                        let pre = Nfa::single_word(decode.len(), &word_before);
                        let post = Nfa::single_word(decode.len(), &word_after);
                        pre.concat(&nfa).concat(&post)
                    }
                };
                let label_sym = Symbol::from_index(*label);
                debug_assert!(label_sym.index() < sigma2);
                bin.set_transition(id, label_sym, nfa);
            }
        }
    }
    (
        bin,
        BinMeta {
            decode,
            wrapped: tp,
            reach,
        },
    )
}

/// The `#`-eliminating complement `B_out`: accepts `t` over `Σ ∪ {#}` iff
/// `γ(t)` is not a single `A_out`-accepted tree.
fn hash_complement(aout: &Nta, sigma: usize, sigma2: usize) -> Nta {
    let na = aout.num_states();
    let hash = Symbol::from_index(sigma);

    // Joint space J: states of all transition NFAs, plus the virtual root
    // component V' (4 states).
    let mut offsets: FxHashMap<(u32, usize), u32> = FxHashMap::default(); // (q, b) → offset
    let mut total = 0u32;
    for b in 0..sigma {
        for q in 0..na as u32 {
            if let Some(nfa) = aout.transition(q, Symbol::from_index(b)) {
                offsets.insert((q, b), total);
                total += nfa.num_states() as u32;
            }
        }
    }
    let v_off = total; // V' occupies v_off .. v_off + 4
    total += 4;

    // B_out states: 0..na = A_out states (finality flipped), then pairs
    // (x, y) over J encoded as na + x * total + y.
    let pair = |x: u32, y: u32| na as u32 + x * total + y;
    let num_states = na + (total * total) as usize;
    let mut bout = Nta::new(sigma2);
    bout.add_states(num_states);

    // Finals: flipped A_out finals (γ(t) is a tree rejected by A_out), and
    // V' pairs (v0, accepting).
    for q in 0..na as u32 {
        if !aout.is_final_state(q) {
            bout.set_final(q);
        }
    }
    // V' transitions on letters p ∈ Q_Aout: v0 --F--> v1, v0 --nonF--> v2,
    // v1/v2 --any--> v3, v3 --any--> v3. Accepting: v0, v2, v3 (violating
    // yields); v1 = exactly one accepted tree (the only OK case).
    let v0 = v_off;
    let v1 = v_off + 1;
    let v2 = v_off + 2;
    let v3 = v_off + 3;
    for y in [v0, v2, v3] {
        bout.set_final(pair(v0, y));
    }

    // Helper: build the jump-enriched NFA for a component.
    // `component`: (offset, its raw NFA edges as (from, p, to) with local
    // indices, finals, initials) — we reconstruct per call.
    let build_component_nfa = |local_edges: &[(u32, u32, u32)],
                               local_states: usize,
                               offset: u32,
                               initials: &[u32],
                               finals: &[u32]|
     -> Nfa {
        let mut nfa = Nfa::new(num_states);
        for _ in 0..local_states {
            nfa.add_state();
        }
        for &i in initials {
            nfa.set_initial(i);
        }
        for &f in finals {
            nfa.set_final(f);
        }
        // Direct edges: letter = the child's A_out-state p (a Bout state id
        // < na).
        for &(from, p, to) in local_edges {
            nfa.add_transition(from, p, to);
        }
        // Jump edges: from any local state s, consuming a pair
        // (offset+s, offset+z), jump to z.
        for s in 0..local_states as u32 {
            for z in 0..local_states as u32 {
                let letter = pair(offset + s, offset + z);
                nfa.add_transition(s, letter, z);
            }
        }
        nfa
    };

    // Non-# transitions: δ_Bout(q, b) from A_out's (q, b) NFA.
    for b in 0..sigma {
        let bsym = Symbol::from_index(b);
        for q in 0..na as u32 {
            let Some(n) = aout.transition(q, bsym) else {
                continue;
            };
            let offset = offsets[&(q, b)];
            let edges: Vec<(u32, u32, u32)> = n.transitions().collect();
            let initials: Vec<u32> = n.initial_states().to_vec();
            let finals: Vec<u32> = n.final_states().collect();
            let nfa = build_component_nfa(&edges, n.num_states(), offset, &initials, &finals);
            bout.set_transition(q, bsym, nfa);
        }
    }

    // # transitions: δ_Bout((x, y), #) — the component of x from x to y.
    // Transition-NFA components:
    for b in 0..sigma {
        for q in 0..na as u32 {
            let Some(n) = aout.transition(q, Symbol::from_index(b)) else {
                continue;
            };
            let offset = offsets[&(q, b)];
            let edges: Vec<(u32, u32, u32)> = n.transitions().collect();
            for x in 0..n.num_states() as u32 {
                for y in 0..n.num_states() as u32 {
                    let nfa = build_component_nfa(&edges, n.num_states(), offset, &[x], &[y]);
                    bout.set_transition(pair(offset + x, offset + y), hash, nfa);
                }
            }
        }
    }
    // V' component # transitions.
    {
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for p in 0..na as u32 {
            let target = if aout.is_final_state(p) { 1 } else { 2 };
            edges.push((0, p, target));
            edges.push((1, p, 3));
            edges.push((2, p, 3));
            edges.push((3, p, 3));
        }
        for x in 0..4u32 {
            for y in 0..4u32 {
                let nfa = build_component_nfa(&edges, 4, v_off, &[x], &[y]);
                bout.set_transition(pair(v_off + x, v_off + y), hash, nfa);
            }
        }
    }
    let _ = (v1, v2, v3, v0);
    bout
}

/// Decodes the product witness (an output tree over `Σ ∪ {#}`) back into an
/// input tree using `B_in`'s accepting run. Input children that a
/// stateless rule drops are synthesized from the `A_in` fixpoint, charged
/// to `budget`.
fn rebuild_input(
    meta: &BinMeta,
    ain: &Nta,
    out_tree: &Tree,
    run: &[u32],
    index: usize,
    budget: &mut usize,
) -> Result<Tree, TypecheckError> {
    let (a, q_a, q_t, u) = meta.decode[run[index] as usize];
    debug_assert_eq!(u, 0, "input nodes correspond to rhs roots");
    let rhs = &meta.wrapped.rules[&(q_t, a)];

    // Find the rhs node holding the state leaf, and in parallel the output
    // node corresponding to it.
    let state_info = find_state_leaf(rhs);
    match state_info {
        None => {
            // Input children were dropped: synthesize any realizable word.
            let children = match ain.transition(q_a, Symbol::from_index(a)) {
                Some(nfa) => nfa
                    .shortest_word_restricted(|l| meta.reach.reachable[l as usize])
                    .expect("gated at construction")
                    .into_iter()
                    .map(|qa2| {
                        meta.reach
                            .tree_for_state(qa2, budget)
                            .ok_or_else(witness_cap_error)
                    })
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            Ok(Tree::node(Symbol::from_index(a), children))
        }
        Some((parent_rhs_node, pos_in_children)) => {
            // Walk the output tree to the node for `parent_rhs_node`.
            let (out_idx, out_node) = locate_output_node(rhs, out_tree, index, 0, parent_rhs_node)
                .expect("rhs structure mirrors the output");
            // The D′-consumed children occupy positions pos.. in the output
            // node, spanning consumed = out_children - (structural - 1).
            let structural = match &rhs.nodes[parent_rhs_node] {
                WNode::Elem(_, ch) => ch.len(),
                WNode::State(_) => unreachable!(),
            };
            let consumed = out_node.children.len() + 1 - structural;
            let mut input_children = Vec::with_capacity(consumed);
            // Pre-order index of out_node's first child.
            let mut child_idx = out_idx + 1;
            for (i, c) in out_node.children.iter().enumerate() {
                if i >= pos_in_children && i < pos_in_children + consumed {
                    input_children.push(rebuild_input(meta, ain, c, run, child_idx, budget)?);
                }
                child_idx += c.num_nodes();
            }
            Ok(Tree::node(Symbol::from_index(a), input_children))
        }
    }
}

/// Finds the rhs element node whose children contain the state leaf,
/// returning (node index, position among its children).
fn find_state_leaf(rhs: &WrappedRhs) -> Option<(usize, usize)> {
    for (i, n) in rhs.nodes.iter().enumerate() {
        if let WNode::Elem(_, children) = n {
            for (j, &c) in children.iter().enumerate() {
                if matches!(rhs.nodes[c], WNode::State(_)) {
                    return Some((i, j));
                }
            }
        }
    }
    None
}

/// Locates the output subtree corresponding to rhs node `target`,
/// returning its pre-order index (in the whole output tree) and reference.
/// `rhs_node` and `out` start at the rhs root / the rule's output root.
fn locate_output_node<'a>(
    rhs: &WrappedRhs,
    out: &'a Tree,
    out_index: usize,
    rhs_node: usize,
    target: usize,
) -> Option<(usize, &'a Tree)> {
    if rhs_node == target {
        return Some((out_index, out));
    }
    let WNode::Elem(_, children) = &rhs.nodes[rhs_node] else {
        return None;
    };
    // Structural children of the rhs align with output children one-to-one
    // *before* the state leaf; the state leaf expands to a segment; children
    // after it align from the right.
    let state_pos = children
        .iter()
        .position(|&c| matches!(rhs.nodes[c], WNode::State(_)));
    let n_out = out.children.len();
    let mut out_child_index = out_index + 1;
    for (i, &c) in children.iter().enumerate() {
        // Map rhs child position i to output child position.
        let out_pos = match state_pos {
            Some(sp) if i == sp => {
                // the state leaf itself: cannot contain target elements
                // (it is a leaf); skip its whole segment.
                let consumed = n_out + 1 - children.len();
                for k in 0..consumed {
                    out_child_index += out.children[sp + k].num_nodes();
                }
                continue;
            }
            Some(sp) if i > sp => {
                let consumed = n_out + 1 - children.len();
                i + consumed - 1
            }
            _ => i,
        };
        let out_child = &out.children[out_pos];
        if let Some(hit) = locate_output_node(rhs, out_child, out_child_index, c, target) {
            return Some(hit);
        }
        out_child_index += out_child.num_nodes();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlta_base::Alphabet;
    use xmlta_schema::convert::dtd_to_nta;
    use xmlta_schema::Dtd;
    use xmlta_transducer::TransducerBuilder;

    /// Converts a DTD to a DTAc(DFA)-style NTA: deterministic by
    /// construction (states = symbols), completed with a sink.
    fn dtd_to_dtac(d: &Dtd) -> Nta {
        let nta = dtd_to_nta(d);
        dta::complete(&nta)
    }

    fn check(din: &Dtd, dout: &Dtd, t: &Transducer, sigma: usize) -> Outcome {
        let ain = dtd_to_nta(din);
        let aout = dtd_to_dtac(dout);
        let outcome = typecheck_delrelab(&ain, &aout, t, sigma).expect("engine runs");
        if let Outcome::CounterExample(ce) = &outcome {
            assert!(
                din.compile_to_dfas().accepts(&ce.input),
                "counterexample input invalid: {:?}",
                ce.input
            );
            let ok = match &ce.output {
                Some(o) => dout.compile_to_dfas().accepts(o),
                None => false,
            };
            assert!(!ok, "counterexample output is valid");
        }
        // Cross-check against the Lemma 14 engine (both are complete).
        let l14 = crate::lemma14::typecheck_dtds(din, dout, t, sigma).expect("lemma14 runs");
        assert_eq!(
            outcome.type_checks(),
            l14.type_checks(),
            "Theorem 20 and Lemma 14 engines disagree"
        );
        outcome
    }

    #[test]
    fn pure_relabeling_typechecks() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "s(q)")
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dout = Dtd::parse("s -> y*", &mut a).unwrap();
        assert!(check(&din, &dout, &t, a.len()).type_checks());
    }

    #[test]
    fn relabeling_violation_found() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "s(q)")
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dout = Dtd::parse("s -> y?", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        assert!(!outcome.type_checks());
    }

    #[test]
    fn recursive_deletion_width_one() {
        // Delete arbitrarily deep x-chains (the Theorem 20 headline case).
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x?\nx -> x?", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "d"])
            .rule("root", "r", "r(d)")
            .rule("d", "x", "d")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        assert!(check(&din, &dout, &t, a.len()).type_checks());
    }

    #[test]
    fn deletion_exposes_leaves() {
        // Deleting the middle layer exposes y-leaves to the root.
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> m\nm -> y y\ny -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "d"])
            .rule("root", "r", "r(d)")
            .rule("d", "m", "d")
            .rule("d", "y", "y")
            .build()
            .unwrap();
        let dout_ok = Dtd::parse("r -> y y", &mut a).unwrap();
        assert!(check(&din, &dout_ok, &t, a.len()).type_checks());
        let dout_bad = Dtd::parse("r -> y", &mut a).unwrap();
        assert!(!check(&din, &dout_bad, &t, a.len()).type_checks());
    }

    #[test]
    fn dropped_children_require_realizability() {
        // The stateless rule drops the input children; outputs are fixed.
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x x\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "s(k)")
            .build()
            .unwrap();
        let dout = Dtd::parse("s -> k", &mut a).unwrap();
        assert!(check(&din, &dout, &t, a.len()).type_checks());
        let dout_bad = Dtd::parse("s -> ", &mut a).unwrap();
        assert!(!check(&din, &dout_bad, &t, a.len()).type_checks());
    }

    #[test]
    fn missing_root_rule_counterexample() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dout = Dtd::parse("y -> ", &mut a).unwrap();
        let outcome = check(&din, &dout, &t, a.len());
        assert!(!outcome.type_checks(), "ε output is never schema-valid");
    }

    /// `r -> a0 a0`, `a_i -> a_{i+1} a_{i+1}`, `a20 -> ε`: every valid
    /// input has 2^22 - 1 nodes, well over `WITNESS_CAP`.
    fn doubling_dtd(a: &mut Alphabet) -> Dtd {
        let mut rules = String::from("r -> a0 a0\n");
        for i in 0..20 {
            rules.push_str(&format!("a{i} -> a{} a{}\n", i + 1, i + 1));
        }
        rules.push_str("a20 -> \n");
        Dtd::parse(&rules, a).unwrap()
    }

    /// Runs both engines on an instance whose only counterexamples exceed
    /// the expansion cap: each must answer `ResourceLimit`, never
    /// "typechecks" and never a panic.
    fn assert_capped(din: &Dtd, dout: &Dtd, t: &Transducer, sigma: usize) {
        let l14 = crate::lemma14::typecheck_dtds(din, dout, t, sigma);
        assert!(
            matches!(l14, Err(TypecheckError::ResourceLimit(_))),
            "Lemma 14: {l14:?}"
        );
        let outcome = typecheck_delrelab(&dtd_to_nta(din), &dtd_to_dtac(dout), t, sigma);
        assert!(
            matches!(outcome, Err(TypecheckError::ResourceLimit(_))),
            "Theorem 20: {outcome:?}"
        );
    }

    #[test]
    fn capped_output_witness_is_a_resource_limit() {
        let mut a = Alphabet::new();
        let din = doubling_dtd(&mut a);
        let mut builder = TransducerBuilder::new(&mut a)
            .states(&["q", "d"])
            .rule("q", "r", "s(d)");
        for i in 0..=20 {
            builder = builder.rule("d", &format!("a{i}"), "d");
        }
        let t = builder.build().unwrap();
        let dout = Dtd::parse("s -> x", &mut a).unwrap();
        assert_capped(&din, &dout, &t, a.len());
    }

    #[test]
    fn capped_dropped_children_are_a_resource_limit() {
        let mut a = Alphabet::new();
        let din = doubling_dtd(&mut a);
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "s")
            .build()
            .unwrap();
        let dout = Dtd::parse("s -> x", &mut a).unwrap();
        assert_capped(&din, &dout, &t, a.len());
    }

    #[test]
    fn rejects_non_delrelab() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "s(q q)")
            .build()
            .unwrap();
        let ain = dtd_to_nta(&din);
        let aout = dtd_to_dtac(&din);
        assert!(matches!(
            typecheck_delrelab(&ain, &aout, &t, a.len()),
            Err(TypecheckError::Unsupported(_))
        ));
    }
}
