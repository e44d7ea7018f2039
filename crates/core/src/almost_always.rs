//! Almost-always typechecking (Corollary 39).
//!
//! An instance *almost always typechecks* when the set of counterexamples
//! `{t ∈ L(d_in) | T(t) ∉ L(d_out)}` is finite (Engelfriet & Maneth). The
//! paper's algorithm runs the finiteness test of Proposition 4(1) on the
//! counterexample automaton `B` of Lemma 14. In the profile engine, `B`'s
//! useful states correspond to the *violating configurations* and the
//! structures realizing them, so `L(B)` is infinite iff some violating
//! configuration can be **pumped**:
//!
//! 1. the *context* above the violating node (a path through the
//!    reachability graph plus sibling subtrees) admits infinitely many
//!    variants — a cycle in the relevant reachability subgraph, an
//!    unbounded children-word choice at a step, or a sibling position whose
//!    subtree language is infinite;
//! 2. the violating node's *children walk* contains a productive cycle
//!    (unboundedly many children sequences realize the violation); or
//! 3. some *profile* used by the violating walk is realized by infinitely
//!    many trees (substituting any of them preserves the violation, because
//!    the profile is the entire output behavior).
//!
//! These are exactly the horizontal/vertical pumping arguments behind
//! Proposition 4(1), applied to `B`'s trimmed state space.

use crate::behavior::BehaviorId;
use crate::lemma14::{Lemma14Engine, ProfileId};
use crate::TypecheckError;
use std::collections::{HashMap, HashSet};
use xmlta_automata::Nfa;
use xmlta_base::Symbol;
use xmlta_schema::Dtd;
use xmlta_transducer::rhs::StateId;
use xmlta_transducer::Transducer;

/// The three-valued answer of Corollary 39.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlmostAlways {
    /// No counterexamples at all.
    TypeChecks,
    /// Counterexamples exist but only finitely many.
    FinitelyMany,
    /// Infinitely many counterexamples.
    InfinitelyMany,
}

impl AlmostAlways {
    /// Whether the instance almost always typechecks (finite counterexample
    /// set, including zero).
    pub fn almost_always(&self) -> bool {
        !matches!(self, AlmostAlways::InfinitelyMany)
    }
}

/// Decides almost-always typechecking for a DTD instance.
pub fn almost_always_typechecks(
    din: &Dtd,
    dout: &Dtd,
    t: &Transducer,
    alphabet_size: usize,
) -> Result<AlmostAlways, TypecheckError> {
    let t = crate::plain_transducer(t, alphabet_size)?;
    let mut engine = Lemma14Engine::new(din, dout, &t, alphabet_size)?;
    engine.run_fixpoint()?;
    engine.compute_reachable();
    let analysis = Analysis::build(&mut engine)?;
    Ok(analysis.verdict)
}

struct Analysis {
    verdict: AlmostAlways,
}

impl Analysis {
    fn build(engine: &mut Lemma14Engine) -> Result<Analysis, TypecheckError> {
        // Missing root rule: every valid input is a counterexample.
        let root = (engine.t.initial_state(), engine.din_start);
        if engine.productive[engine.din_start]
            && engine.t.rule(root.0, Symbol::from_index(root.1)).is_none()
        {
            let inf = symbol_language_infinite(engine)[engine.din_start];
            return Ok(Analysis {
                verdict: if inf {
                    AlmostAlways::InfinitelyMany
                } else {
                    AlmostAlways::FinitelyMany
                },
            });
        }

        // Scan all pairs for violating configurations, remembering per pair
        // the walk structure and the violating nodes.
        let mut violating_pairs: Vec<(StateId, usize)> = Vec::new();
        let mut any_walk_cycle = false;
        let mut used_profiles: HashSet<(usize, ProfileId)> = HashSet::new();
        let pairs: Vec<(StateId, usize)> = engine.reachable.keys().copied().collect();
        for (q, a) in pairs {
            let Some(report) = violating_walk_report(engine, q, a)? else {
                continue;
            };
            violating_pairs.push((q, a));
            any_walk_cycle |= report.has_cycle;
            used_profiles.extend(report.profiles);
        }
        if violating_pairs.is_empty() {
            return Ok(Analysis {
                verdict: AlmostAlways::TypeChecks,
            });
        }
        if any_walk_cycle {
            return Ok(Analysis {
                verdict: AlmostAlways::InfinitelyMany,
            });
        }

        // (3) profile pumpability.
        let pump = pumpable_profiles(engine)?;
        if used_profiles.iter().any(|k| pump.contains(k)) {
            return Ok(Analysis {
                verdict: AlmostAlways::InfinitelyMany,
            });
        }

        // (1) context pumpability over the relevant reachability subgraph.
        if context_pumpable(engine, &violating_pairs) {
            return Ok(Analysis {
                verdict: AlmostAlways::InfinitelyMany,
            });
        }
        Ok(Analysis {
            verdict: AlmostAlways::FinitelyMany,
        })
    }
}

/// Per-symbol: is the set of trees rooted at the symbol that partly satisfy
/// `d_in` infinite?
fn symbol_language_infinite(engine: &Lemma14Engine) -> Vec<bool> {
    let sigma = engine.sigma;
    // Child edges among productive symbols.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); sigma];
    let mut wide: Vec<bool> = vec![false; sigma]; // infinite word choices
    for a in 0..sigma {
        if !engine.productive[a] {
            continue;
        }
        let nfa = engine.din_dfas[a].to_nfa();
        let productive = engine.productive.clone();
        wide[a] = nfa.restricted_language_is_infinite(|l| productive[l as usize]);
        for b in 0..sigma {
            if engine.productive[b] && engine.child_letters[a].contains(b as u32) {
                adj[a].push(b);
            }
        }
    }
    // inf(a) = wide(b) for some b reachable from a, or a cycle reachable
    // from a.
    let mut inf = vec![false; sigma];
    for a in 0..sigma {
        if !engine.productive[a] {
            continue;
        }
        // forward reachability
        let mut seen = vec![false; sigma];
        let mut stack = vec![a];
        seen[a] = true;
        let mut found = false;
        while let Some(x) = stack.pop() {
            if wide[x] {
                found = true;
                break;
            }
            for &y in &adj[x] {
                if y == a || (seen[y] && on_cycle(&adj, y)) {
                    // back to start or into a cycle
                    found = true;
                    break;
                }
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
            if found {
                break;
            }
        }
        // More robust cycle check: reachable subgraph has a cycle.
        if !found {
            found = subgraph_has_cycle(&adj, &seen);
        }
        inf[a] = found;
    }
    inf
}

fn on_cycle(adj: &[Vec<usize>], node: usize) -> bool {
    // DFS from node looking for a path back to node.
    let mut seen = vec![false; adj.len()];
    let mut stack = vec![node];
    while let Some(x) = stack.pop() {
        for &y in &adj[x] {
            if y == node {
                return true;
            }
            if !seen[y] {
                seen[y] = true;
                stack.push(y);
            }
        }
    }
    false
}

fn subgraph_has_cycle(adj: &[Vec<usize>], within: &[bool]) -> bool {
    let n = adj.len();
    let mut indeg = vec![0usize; n];
    let mut live = 0;
    for x in 0..n {
        if !within[x] {
            continue;
        }
        live += 1;
        for &y in &adj[x] {
            if within[y] {
                indeg[y] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&x| within[x] && indeg[x] == 0).collect();
    let mut removed = 0;
    while let Some(x) = queue.pop() {
        removed += 1;
        for &y in &adj[x] {
            if within[y] {
                indeg[y] -= 1;
                if indeg[y] == 0 {
                    queue.push(y);
                }
            }
        }
    }
    removed < live
}

/// A violating-walk report for one `(q, a)` pair.
struct WalkReport {
    /// A productive cycle exists on a path to a violating node.
    has_cycle: bool,
    /// Profiles used on paths to violating nodes.
    profiles: Vec<(usize, ProfileId)>,
}

/// Rebuilds the full violating walk graph for `(q, a)` (all edges, not just
/// the BFS tree) and analyzes the subgraph that can reach a violating
/// accepting node.
fn violating_walk_report(
    engine: &mut Lemma14Engine,
    q: StateId,
    a: usize,
) -> Result<Option<WalkReport>, TypecheckError> {
    let Some(report) = engine.violation_walk_graph(q, a)? else {
        return Ok(None);
    };
    // Backward closure from violating nodes.
    let n = report.num_nodes;
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(from, to, _, _) in report.edges.iter() {
        rev[to as usize].push(from as usize);
    }
    let mut relevant = vec![false; n];
    let mut stack: Vec<usize> = report.violating.clone();
    for &v in &stack {
        relevant[v] = true;
    }
    while let Some(x) = stack.pop() {
        for &y in &rev[x] {
            if !relevant[y] {
                relevant[y] = true;
                stack.push(y);
            }
        }
    }
    // Cycle within the relevant subgraph?
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut profiles = Vec::new();
    for &(from, to, c, pid) in report.edges.iter() {
        if relevant[from as usize] && relevant[to as usize] {
            adj[from as usize].push(to as usize);
            profiles.push((c, pid));
        }
    }
    profiles.sort_unstable();
    profiles.dedup();
    let has_cycle = subgraph_has_cycle(&adj, &relevant);
    Ok(Some(WalkReport {
        has_cycle,
        profiles,
    }))
}

/// Profiles realized by infinitely many trees.
fn pumpable_profiles(
    engine: &mut Lemma14Engine,
) -> Result<HashSet<(usize, ProfileId)>, TypecheckError> {
    // Dependency graph among (symbol, profile) nodes + direct pumpability.
    let mut direct: HashSet<(usize, ProfileId)> = HashSet::new();
    let mut deps: HashMap<(usize, ProfileId), Vec<(usize, ProfileId)>> = HashMap::new();
    for a in 0..engine.sigma {
        if !engine.productive[a] {
            continue;
        }
        let graphs = engine.profile_walk_graph(a)?;
        for (pid, graph) in graphs {
            // Backward closure from the accepting nodes assembling pid.
            let n = graph.num_nodes;
            let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &(from, to, _, _) in graph.edges.iter() {
                rev[to as usize].push(from as usize);
            }
            let mut relevant = vec![false; n];
            let mut stack = graph.violating.clone(); // here: assembling nodes
            for &v in &stack {
                relevant[v] = true;
            }
            while let Some(x) = stack.pop() {
                for &y in &rev[x] {
                    if !relevant[y] {
                        relevant[y] = true;
                        stack.push(y);
                    }
                }
            }
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut ds = Vec::new();
            for &(from, to, c, p2) in graph.edges.iter() {
                if relevant[from as usize] && relevant[to as usize] {
                    adj[from as usize].push(to as usize);
                    ds.push((c, p2));
                }
            }
            ds.sort_unstable();
            ds.dedup();
            if subgraph_has_cycle(&adj, &relevant) {
                direct.insert((a, pid));
            }
            deps.entry((a, pid)).or_default().extend(ds);
        }
    }
    // Propagate: pumpable if direct, depends on pumpable, or on a
    // dependency cycle.
    let keys: Vec<(usize, ProfileId)> = deps.keys().copied().collect();
    let mut pumpable = direct;
    // Dependency cycles: Kahn over the dependency graph.
    {
        let index: HashMap<(usize, ProfileId), usize> = keys
            .iter()
            .copied()
            .enumerate()
            .map(|(i, k)| (k, i))
            .collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); keys.len()];
        for (k, ds) in &deps {
            for d in ds {
                if let (Some(&i), Some(&j)) = (index.get(k), index.get(d)) {
                    adj[i].push(j);
                }
            }
        }
        let within = vec![true; keys.len()];
        if subgraph_has_cycle(&adj, &within) {
            // Mark every node on a cycle (in an SCC of size ≥ 2 or with a
            // self-loop) as pumpable.
            for (i, k) in keys.iter().enumerate() {
                if adj[i].contains(&i) || on_cycle(&adj, i) {
                    pumpable.insert(*k);
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for (k, ds) in &deps {
            if pumpable.contains(k) {
                continue;
            }
            if ds.iter().any(|d| pumpable.contains(d)) {
                pumpable.insert(*k);
                changed = true;
            }
        }
        if !changed {
            return Ok(pumpable);
        }
    }
}

/// Context pumpability: can the part of the input *above* some violating
/// node vary infinitely?
fn context_pumpable(engine: &Lemma14Engine, violating: &[(StateId, usize)]) -> bool {
    // Rebuild the reachability edge relation.
    let pairs: Vec<(StateId, usize)> = engine.reachable.keys().copied().collect();
    let index: HashMap<(StateId, usize), usize> = pairs
        .iter()
        .copied()
        .enumerate()
        .map(|(i, k)| (k, i))
        .collect();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); pairs.len()]; // (target, child symbol)
    for (i, &(q, a)) in pairs.iter().enumerate() {
        let Some(rhs) = engine.t.rule(q, Symbol::from_index(a)) else {
            continue;
        };
        for p in rhs.all_state_occurrences() {
            for b in 0..engine.sigma {
                if let Some(&j) = index.get(&(p, b)) {
                    adj[i].push((j, b));
                }
            }
        }
    }
    // Relevant: pairs from which a violating pair is reachable.
    let mut relevant = vec![false; pairs.len()];
    {
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); pairs.len()];
        for (i, outs) in adj.iter().enumerate() {
            for &(j, _) in outs {
                rev[j].push(i);
            }
        }
        let mut stack: Vec<usize> = violating
            .iter()
            .filter_map(|k| index.get(k).copied())
            .collect();
        for &v in &stack {
            relevant[v] = true;
        }
        while let Some(x) = stack.pop() {
            for &y in &rev[x] {
                if !relevant[y] {
                    relevant[y] = true;
                    stack.push(y);
                }
            }
        }
    }
    // Cycle among relevant pairs ⇒ violating nodes at unbounded depth.
    {
        let plain: Vec<Vec<usize>> = adj
            .iter()
            .enumerate()
            .map(|(i, outs)| {
                if !relevant[i] {
                    return Vec::new();
                }
                outs.iter()
                    .filter(|&&(j, _)| relevant[j])
                    .map(|&(j, _)| j)
                    .collect()
            })
            .collect();
        if subgraph_has_cycle(&plain, &relevant) {
            return true;
        }
    }
    // Per relevant step: unbounded word choices or an infinite sibling.
    let inf_sym = symbol_language_infinite(engine);
    for (i, &(_q, a)) in pairs.iter().enumerate() {
        if !relevant[i] {
            continue;
        }
        for &(j, b) in &adj[i] {
            if !relevant[j] {
                continue;
            }
            if step_word_choices_unbounded(engine, a, b)
                || step_has_infinite_sibling(engine, a, b, &inf_sym)
            {
                return true;
            }
        }
    }
    false
}

/// Whether infinitely many `d_in(a)` words (over productive symbols)
/// contain `b`.
fn step_word_choices_unbounded(engine: &Lemma14Engine, a: usize, b: usize) -> bool {
    let dfa = &engine.din_dfas[a];
    // Two-layer NFA: layer 1 after having read b.
    let mut nfa = Nfa::new(engine.sigma);
    let n = dfa.num_states();
    for _ in 0..2 * n {
        nfa.add_state();
    }
    let id = |q: u32, layer: u32| q * 2 + layer;
    nfa.set_initial(id(dfa.initial_state(), 0));
    for q in 0..n as u32 {
        if dfa.is_final_state(q) {
            nfa.set_final(id(q, 1));
        }
        for c in 0..engine.sigma as u32 {
            if !engine.productive[c as usize] {
                continue;
            }
            if let Some(r) = dfa.step(q, c) {
                nfa.add_transition(id(q, 0), c, id(r, if c as usize == b { 1 } else { 0 }));
                nfa.add_transition(id(q, 1), c, id(r, 1));
            }
        }
    }
    let productive = engine.productive.clone();
    nfa.restricted_language_is_infinite(|l| productive[l as usize])
}

/// Whether some `d_in(a)` word contains `b` and, at a *different* position,
/// a symbol whose subtree language is infinite.
fn step_has_infinite_sibling(engine: &Lemma14Engine, a: usize, b: usize, inf_sym: &[bool]) -> bool {
    let dfa = &engine.din_dfas[a];
    let n = dfa.num_states();
    // Four layers: (b seen?, infinite sibling seen?).
    let id = |q: u32, bs: u32, is: u32| ((q * 2 + bs) * 2 + is) as usize;
    let mut seen = vec![false; n * 4];
    let mut stack = vec![(dfa.initial_state(), 0u32, 0u32)];
    seen[id(dfa.initial_state(), 0, 0)] = true;
    while let Some((q, bs, is)) = stack.pop() {
        if bs == 1 && is == 1 && dfa.is_final_state(q) {
            return true;
        }
        for c in 0..engine.sigma as u32 {
            if !engine.productive[c as usize] {
                continue;
            }
            let Some(r) = dfa.step(q, c) else { continue };
            // Consume c as: the b-hole (if c == b, at most once), or a
            // sibling (infinite or not). A single occurrence serves one
            // role.
            let mut options: Vec<(u32, u32)> = vec![(bs, is)]; // plain sibling
            if c as usize == b && bs == 0 {
                options.push((1, is)); // the hole
            }
            if inf_sym[c as usize] && is == 0 {
                options.push((bs, 1)); // an infinite sibling
            }
            for (nbs, nis) in options {
                if !seen[id(r, nbs, nis)] {
                    seen[id(r, nbs, nis)] = true;
                    stack.push((r, nbs, nis));
                }
            }
        }
    }
    false
}

// Engine extensions used by this module live here to keep `lemma14.rs`
// focused on the decision procedure.
impl Lemma14Engine {
    /// Rebuilds the violation walk for `(q, a)` with *all* edges, returning
    /// `None` when the pair has no violating accepting node.
    pub(crate) fn violation_walk_graph(
        &mut self,
        q: StateId,
        a: usize,
    ) -> Result<Option<WalkGraph>, TypecheckError> {
        let is_root = (q, a) == (self.t.initial_state(), self.din_start);
        let Some(needed) = self.check_states(q, a, is_root) else {
            return Ok(None);
        };
        let graph = self.explore_recording_edges(a, &needed)?;
        let violating: Vec<usize> = graph
            .accepting
            .iter()
            .filter(|&&node| self.violates(q, a, is_root, &needed, graph.hvec_of(node)))
            .map(|&node| node as usize)
            .collect();
        if violating.is_empty() {
            return Ok(None);
        }
        Ok(Some(WalkGraph {
            num_nodes: graph.nodes.len(),
            edges: std::rc::Rc::new(graph.edges),
            violating,
        }))
    }

    /// For each profile realizable at `a`, the full derivation walk graph
    /// with its assembling (accepting) nodes.
    pub(crate) fn profile_walk_graph(
        &mut self,
        a: usize,
    ) -> Result<Vec<(ProfileId, WalkGraph)>, TypecheckError> {
        let needed = self.top_states_of(a);
        let mut graph = self.explore_recording_edges(a, &needed)?;
        let edges = std::rc::Rc::new(std::mem::take(&mut graph.edges));
        let mut per_profile: HashMap<ProfileId, Vec<usize>> = HashMap::new();
        for &node in &graph.accepting {
            let hvec: Box<[BehaviorId]> = graph.hvec_of(node).into();
            let profile = self.assemble_profile(a, &needed, &hvec);
            if let Some(pid) = self.lookup_profile(&profile) {
                per_profile.entry(pid).or_default().push(node as usize);
            }
        }
        Ok(per_profile
            .into_iter()
            .map(|(pid, violating)| {
                (
                    pid,
                    WalkGraph {
                        num_nodes: graph.nodes.len(),
                        edges: edges.clone(),
                        violating,
                    },
                )
            })
            .collect())
    }
}

/// A fully materialized walk graph. The edge list is shared (`Rc`) so that
/// the per-profile graphs of [`Lemma14Engine::profile_walk_graph`] don't
/// duplicate O(edges) memory per profile.
pub(crate) struct WalkGraph {
    pub(crate) num_nodes: usize,
    /// (from, to, child symbol, child profile).
    pub(crate) edges: std::rc::Rc<Vec<(u32, u32, usize, ProfileId)>>,
    /// Nodes of interest (violating / assembling).
    pub(crate) violating: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlta_base::Alphabet;
    use xmlta_transducer::TransducerBuilder;

    fn run(din: &Dtd, dout: &Dtd, t: &Transducer, sigma: usize) -> AlmostAlways {
        almost_always_typechecks(din, dout, t, sigma).expect("analysis runs")
    }

    #[test]
    fn typechecking_instance_is_almost_always() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> y*", &mut a).unwrap();
        assert_eq!(run(&din, &dout, &t, a.len()), AlmostAlways::TypeChecks);
    }

    #[test]
    fn finite_input_language_finite_counterexamples() {
        // L(d_in) = {r, r(x)}: at most two counterexamples ever.
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x?\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap(); // r(x) ↦ r(y) fails
        assert_eq!(run(&din, &dout, &t, a.len()), AlmostAlways::FinitelyMany);
    }

    #[test]
    fn unbounded_violations_detected() {
        // Every r(x…x) with ≥ 1 x fails and there are infinitely many.
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x x*\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        assert_eq!(run(&din, &dout, &t, a.len()), AlmostAlways::InfinitelyMany);
    }

    #[test]
    fn pumpable_subtree_detected() {
        // The violating node has one child but that child's subtree
        // language is infinite (depth pumping below the violation is
        // *inside* the violating node's children profiles).
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> m\nm -> m?\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .rule("q", "m", "y")
            .build()
            .unwrap();
        // Output y is always produced (exactly one m child), so r -> ε
        // fails on every input — and inputs are the infinite family
        // r(m(m(…))).
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        assert_eq!(run(&din, &dout, &t, a.len()), AlmostAlways::InfinitelyMany);
    }

    #[test]
    fn deep_context_pumping_detected() {
        // The violation sits below a pumpable context: chains of m's.
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> m\nm -> m | x\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["root", "q"])
            .rule("root", "r", "r(q)")
            .rule("q", "m", "k(q)")
            .rule("q", "x", "bad")
            .build()
            .unwrap();
        // k nodes may nest arbitrarily; bad is never allowed below k.
        let dout = Dtd::parse("r -> k?\nk -> k?", &mut a).unwrap();
        assert_eq!(run(&din, &dout, &t, a.len()), AlmostAlways::InfinitelyMany);
    }

    #[test]
    fn missing_root_rule_cases() {
        let mut a = Alphabet::new();
        let din = Dtd::parse("r -> x?\nx -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "x", "y")
            .build()
            .unwrap();
        let dout = Dtd::parse("r -> ", &mut a).unwrap();
        // Finite input language, missing root rule: finitely many.
        assert_eq!(run(&din, &dout, &t, a.len()), AlmostAlways::FinitelyMany);
        let din_inf = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        assert_eq!(
            run(&din_inf, &dout, &t, a.len()),
            AlmostAlways::InfinitelyMany
        );
    }
}
