//! Pretty-printer for the textual instance format.
//!
//! [`print_instance`] emits the surface syntax accepted by
//! [`parse_instance`](crate::parse::parse_instance). The printed form is
//! canonical: the alphabet section pins symbol indices, rules and
//! transitions are emitted in sorted order, and automaton blocks list their
//! exact structure — so printing is a *fixpoint* under parse∘print
//! (`print(parse(print(x))) == print(x)`), which is what the round-trip
//! property tests assert. Regex and `RE+` rules additionally round-trip to
//! structurally identical ASTs; NTA transition languages are extracted by
//! Kleene state elimination and round-trip up to language equivalence.

use crate::error::PrintError;
use crate::parse::is_ident;
use std::fmt::Write as _;
use typecheck_core::{Instance, Schema};
use xmlta_automata::to_regex::nfa_to_regex;
use xmlta_automata::{Dfa, Nfa};
use xmlta_base::{Alphabet, FxHashSet, Symbol};
use xmlta_schema::{Dtd, Nta, StringLang};
use xmlta_transducer::{RhsNode, Selector, Transducer};

/// Renders `inst` in the textual instance format.
pub fn print_instance(inst: &Instance) -> Result<String, PrintError> {
    let a = &inst.alphabet;
    let mut out = String::new();
    if !a.is_empty() {
        out.push_str("alphabet {");
        for s in a.symbols() {
            let name = a.name(s);
            if !is_ident(name) {
                return Err(PrintError::new(format!(
                    "element name `{name}` is not a printable identifier"
                )));
            }
            out.push(' ');
            out.push_str(name);
        }
        out.push_str(" }\n\n");
    }
    print_schema(&mut out, "input", &inst.input, a)?;
    out.push('\n');
    print_schema(&mut out, "output", &inst.output, a)?;
    out.push('\n');
    print_transducer(&mut out, &inst.transducer, a)?;
    Ok(out)
}

fn print_schema(
    out: &mut String,
    which: &str,
    schema: &Schema,
    a: &Alphabet,
) -> Result<(), PrintError> {
    match schema {
        Schema::Dtd(d) => print_dtd(out, which, d, a),
        Schema::Nta(n) => print_nta(out, which, n, a),
    }
}

fn name_of(a: &Alphabet, s: Symbol) -> Result<&str, PrintError> {
    if s.index() < a.len() {
        Ok(a.name(s))
    } else {
        Err(PrintError::new(format!(
            "symbol #{} has no name in the instance alphabet",
            s.0
        )))
    }
}

fn print_dtd(out: &mut String, which: &str, d: &Dtd, a: &Alphabet) -> Result<(), PrintError> {
    let _ = writeln!(out, "{which} dtd {{");
    let _ = writeln!(out, "  start {}", name_of(a, d.start())?);
    let mut rules: Vec<(Symbol, &StringLang)> = d.rules().collect();
    rules.sort_by_key(|(s, _)| *s);
    for (sym, lang) in rules {
        let name = name_of(a, sym)?;
        match lang {
            StringLang::Regex(re) => {
                let _ = writeln!(out, "  {name} -> {}", re.display(a));
            }
            StringLang::RePlus(re) => {
                let rendered = re.display(a).to_string();
                if rendered.is_empty() {
                    let _ = writeln!(out, "  {name} -> @replus eps");
                } else {
                    let _ = writeln!(out, "  {name} -> @replus {rendered}");
                }
            }
            StringLang::Dfa(dfa) => {
                let _ = writeln!(out, "  {name} -> @dfa {{");
                print_dfa_block(out, dfa, a, "    ")?;
                out.push_str("  }\n");
            }
            StringLang::Nfa(nfa) => {
                let _ = writeln!(out, "  {name} -> @nfa {{");
                print_nfa_block(out, nfa, a, "    ")?;
                out.push_str("  }\n");
            }
        }
    }
    out.push_str("}\n");
    Ok(())
}

fn print_dfa_block(
    out: &mut String,
    dfa: &Dfa,
    a: &Alphabet,
    indent: &str,
) -> Result<(), PrintError> {
    let _ = writeln!(out, "{indent}states {}", dfa.num_states());
    let _ = writeln!(out, "{indent}initial {}", dfa.initial_state());
    let finals: Vec<String> = (0..dfa.num_states() as u32)
        .filter(|&q| dfa.is_final_state(q))
        .map(|q| q.to_string())
        .collect();
    if !finals.is_empty() {
        let _ = writeln!(out, "{indent}final {}", finals.join(" "));
    }
    for q in 0..dfa.num_states() as u32 {
        for l in 0..dfa.alphabet_size() as u32 {
            if let Some(r) = dfa.step(q, l) {
                let _ = writeln!(out, "{indent}{q} {} {r}", name_of(a, Symbol(l))?);
            }
        }
    }
    Ok(())
}

fn print_nfa_block(
    out: &mut String,
    nfa: &Nfa,
    a: &Alphabet,
    indent: &str,
) -> Result<(), PrintError> {
    let _ = writeln!(out, "{indent}states {}", nfa.num_states().max(1));
    let mut initial: Vec<u32> = nfa.initial_states().to_vec();
    initial.sort_unstable();
    initial.dedup();
    // Always emitted: a bare `initial` line spells the empty set, which a
    // missing line would not (the parser defaults it to state 0).
    out.push_str(indent);
    out.push_str("initial");
    for q in &initial {
        let _ = write!(out, " {q}");
    }
    out.push('\n');
    let finals: Vec<String> = nfa.final_states().map(|q| q.to_string()).collect();
    if !finals.is_empty() {
        let _ = writeln!(out, "{indent}final {}", finals.join(" "));
    }
    let mut edges: Vec<(u32, u32, u32)> = nfa.transitions().collect();
    edges.sort_unstable();
    edges.dedup();
    for (q, l, r) in edges {
        let _ = writeln!(out, "{indent}{q} {} {r}", name_of(a, Symbol(l))?);
    }
    Ok(())
}

fn print_nta(out: &mut String, which: &str, nta: &Nta, a: &Alphabet) -> Result<(), PrintError> {
    let _ = writeln!(out, "{which} nta {{");
    let state_names = nta_state_names(nta.num_states());
    let rendered: Vec<&str> = state_names.symbols().map(|s| state_names.name(s)).collect();
    let _ = writeln!(out, "  states {}", rendered.join(" "));
    let finals: Vec<&str> = nta
        .final_states()
        .map(|q| state_names.name(Symbol(q)))
        .collect();
    if !finals.is_empty() {
        let _ = writeln!(out, "  final {}", finals.join(" "));
    }
    for (q, sym, nfa) in nta.sorted_transitions() {
        let re = nfa_to_regex(nfa);
        let _ = writeln!(
            out,
            "  ({}, {}) -> {}",
            state_names.name(Symbol(q)),
            name_of(a, sym)?,
            re.display(&state_names)
        );
    }
    out.push_str("}\n");
    Ok(())
}

/// The names an NTA's `n` states print under: NTAs carry no state names,
/// so generated `q{i}` names pin state indices.
pub(crate) fn nta_state_names(n: usize) -> Alphabet {
    Alphabet::from_names((0..n).map(|i| format!("q{i}")))
}

fn print_transducer(out: &mut String, t: &Transducer, a: &Alphabet) -> Result<(), PrintError> {
    let names = t.state_names();
    for name in names {
        if !is_ident(name) {
            return Err(PrintError::new(format!(
                "state name `{name}` is not a printable identifier"
            )));
        }
    }
    out.push_str("transducer {\n");
    let _ = writeln!(out, "  states {}", names.join(" "));
    let _ = writeln!(out, "  initial {}", names[t.initial_state() as usize]);
    // DFA selectors need declarations; XPath selectors print inline at their
    // use sites. Generated `$s{i}` names pin the original selector indices.
    for (i, sel) in t.selectors().iter().enumerate() {
        if let Selector::Dfa(dfa) = sel {
            let _ = writeln!(out, "  selector $s{i} = @dfa {{");
            print_dfa_block(out, dfa, a, "    ")?;
            out.push_str("  }\n");
        }
    }
    let mut rules: Vec<(u32, Symbol, &xmlta_transducer::Rhs)> = t.rules().collect();
    rules.sort_by_key(|&(q, s, _)| (q, s));
    // Per symbol: whether a state shares its name. The rhs grammar resolves
    // bare names as states first, so such an output element would re-parse
    // as that state.
    let states: FxHashSet<&str> = names.iter().map(String::as_str).collect();
    let shadowed: Vec<bool> = a.symbols().map(|s| states.contains(a.name(s))).collect();
    for (q, sym, rhs) in rules {
        let mut rendered = String::new();
        for (i, node) in rhs.nodes.iter().enumerate() {
            if i > 0 {
                rendered.push(' ');
            }
            print_rhs_node(&mut rendered, node, t, &shadowed, a)?;
        }
        let _ = writeln!(
            out,
            "  ({}, {}) -> {rendered}",
            names[q as usize],
            name_of(a, sym)?
        );
    }
    out.push_str("}\n");
    Ok(())
}

/// Prints one rhs node; `shadowed[s]` says whether symbol `s` is named
/// like a state of `t`.
fn print_rhs_node(
    out: &mut String,
    node: &RhsNode,
    t: &Transducer,
    shadowed: &[bool],
    a: &Alphabet,
) -> Result<(), PrintError> {
    match node {
        RhsNode::Elem(sym, children) => {
            let name = name_of(a, *sym)?;
            if shadowed[sym.index()] {
                return Err(PrintError::new(format!(
                    "output element `{name}` is shadowed by a state of the same name"
                )));
            }
            out.push_str(name);
            if !children.is_empty() {
                out.push('(');
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    print_rhs_node(out, c, t, shadowed, a)?;
                }
                out.push(')');
            }
            Ok(())
        }
        RhsNode::State(q) => {
            out.push_str(&t.state_names()[*q as usize]);
            Ok(())
        }
        RhsNode::Select(q, sel) => {
            let qname = &t.state_names()[*q as usize];
            match t.selector(*sel) {
                Selector::XPath(p) => {
                    let _ = write!(out, "<{qname}, {}>", p.display(a));
                }
                Selector::Dfa(_) => {
                    let _ = write!(out, "<{qname}, $s{sel}>");
                }
            }
            Ok(())
        }
    }
}
