//! The printed form of an instance, built without printing it.
//!
//! [`canonicalize`] turns an instance `x` into exactly what
//! `parse_instance(print_instance(x))` yields, where the print is taken
//! *before* the call. The print declares the whole alphabet up front, so
//! the parse sizes every section and automaton by it. Automata come back
//! in the printer's state and edge order, NTA transition languages through
//! the printer's state elimination, and transducer selectors numbered the
//! way the parser numbers them. An edited instance brought to this form
//! can be adopted under its printed source's handle as if that source had
//! been registered.
//!
//! The form is not a fixpoint of the print for NTAs: state elimination on
//! the parsed automaton renders a different (larger) regex than the one
//! parsed. So an instance must be printed first and canonicalized after.

use crate::print::nta_state_names;
use typecheck_core::{Instance, Schema};
use xmlta_automata::to_regex::nfa_to_regex;
use xmlta_automata::{Nfa, Regex};
use xmlta_schema::{Dtd, Nta, StringLang};

/// Brings `inst` to the structure its print, taken before this call,
/// parses to. Components already
/// in that form are left alone, so DTD rule tables and transducer rules
/// stay shared with the instance `inst` was cloned from.
pub fn canonicalize(inst: &mut Instance) {
    let sigma = inst.alphabet.len();
    for schema in [&mut inst.input, &mut inst.output] {
        match schema {
            Schema::Dtd(dtd) => canonical_dtd(dtd, sigma),
            Schema::Nta(nta) => *nta = canonical_nta(nta, sigma),
        }
    }
    inst.transducer.grow_alphabet(sigma);
    inst.transducer.compact_selectors();
}

/// Sizes the DTD and its automaton rules by `sigma` and puts NFA rules in
/// the printer's order. Regex and `RE+` rules print and parse back
/// unchanged.
fn canonical_dtd(dtd: &mut Dtd, sigma: usize) {
    dtd.grow_alphabet(sigma);
    let changed: Vec<_> = dtd
        .rules()
        .filter_map(|(sym, lang)| match lang {
            StringLang::Dfa(dfa) if dfa.alphabet_size() < sigma => {
                let mut dfa = (**dfa).clone();
                dfa.grow_alphabet(sigma);
                Some((sym, StringLang::dfa(dfa)))
            }
            StringLang::Nfa(nfa) if !is_printed_nfa(nfa, sigma) => {
                Some((sym, StringLang::Nfa(printed_nfa(nfa, sigma))))
            }
            _ => None,
        })
        .collect();
    for (sym, lang) in changed {
        dtd.set_rule(sym, lang);
    }
}

/// Whether `nfa` is already what its printed `@nfa` block parses to.
fn is_printed_nfa(nfa: &Nfa, sigma: usize) -> bool {
    nfa.alphabet_size() == sigma
        && nfa.num_states() > 0
        && nfa.initial_states().windows(2).all(|w| w[0] < w[1])
        && (0..nfa.num_states() as u32)
            .all(|q| nfa.transitions_from(q).windows(2).all(|w| w[0] < w[1]))
}

/// The parse of `nfa`'s printed `@nfa` block: at least one state, initial
/// states and edges in sorted order, over `sigma` letters.
fn printed_nfa(nfa: &Nfa, sigma: usize) -> Nfa {
    let mut out = Nfa::new(sigma);
    for _ in 0..nfa.num_states().max(1) {
        out.add_state();
    }
    let mut initial = nfa.initial_states().to_vec();
    initial.sort_unstable();
    for q in initial {
        out.set_initial(q);
    }
    for q in nfa.final_states() {
        out.set_final(q);
    }
    let mut edges: Vec<(u32, u32, u32)> = nfa.transitions().collect();
    edges.sort_unstable();
    for (q, l, r) in edges {
        out.add_transition(q, l, r);
    }
    out
}

/// The parse of `nta`'s printed section: each transition language goes
/// through the regex the printer renders for it and back.
fn canonical_nta(nta: &Nta, sigma: usize) -> Nta {
    let states = nta_state_names(nta.num_states());
    let mut out = Nta::new(sigma);
    out.add_states(nta.num_states());
    for q in nta.final_states() {
        out.set_final(q);
    }
    for (q, sym, nfa) in nta.sorted_transitions() {
        let rendered = nfa_to_regex(nfa).display(&states).to_string();
        let re = Regex::parse(&rendered, &mut states.clone())
            .expect("a printed transition language parses");
        out.set_transition(q, sym, re.to_nfa(states.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_instance, print_instance};

    /// `edit` is applied to the parse of `src` before the print is taken.
    fn assert_canonical(src: &str, edit: impl FnOnce(&mut Instance)) {
        let mut inst = parse_instance(src).expect("source parses");
        edit(&mut inst);
        let printed = print_instance(&inst).expect("instance prints");
        let reparsed = parse_instance(&printed).expect("print parses");
        assert!(inst != reparsed, "the case is trivial:\n{printed}");
        canonicalize(&mut inst);
        assert!(inst == reparsed, "not its print's parse:\n{printed}");
    }

    /// Sources without an alphabet section, whose automata are sized by
    /// the symbols seen so far; NFA edges out of order; a selector table
    /// an edit left a stale XPath selector in, ahead of a used one; and
    /// NTA transition languages whose print does not parse back to the
    /// same automata (nor print the same again: the form is that of one
    /// print).
    #[test]
    fn canonical_form_is_the_parse_of_the_print() {
        assert_canonical(
            "input dtd {
  start r
  r -> @nfa {
    states 2
    initial 1 0
    final 1
    1 x 1
    0 x 1
    0 y 0
  }
  x -> @dfa {
    states 1
    final 0
  }
}
output dtd {
  start r
  r -> x* y* z*
}
transducer {
  states q
  selector $d = @dfa {
    states 2
    final 1
    0 x 1
  }
  (q, r) -> r(<q, $d> <q, .//y>)
  (q, x) -> x
}
",
            |inst| {
                let t = &inst.transducer;
                inst.transducer = t
                    .with_rule("q", "x", "x(<q, ./z>)", &mut inst.alphabet)
                    .and_then(|t| t.with_rule("q", "r", "r(<q, ./x>)", &mut inst.alphabet))
                    .expect("edits apply");
            },
        );
        assert_canonical(
            "input nta {
  states a b
  final a
  (a, r) -> (b | a b)* b?
  (b, x) -> eps
}
output nta {
  states c
  final c
  (c, r) -> c* c*
  (c, x) -> eps
}
transducer {
  states q
  (q, r) -> r(q)
  (q, x) -> x
}
",
            |_| {},
        );
    }
}
