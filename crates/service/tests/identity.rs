//! The identity contract: structural equality and fingerprints are one
//! definition on each type (`Eq` and `Hash`), so values that are `==`
//! fingerprint equal — whatever order their hash-map entries were
//! inserted in, and whichever round trip produced them — while a
//! one-rule edit changes both.

use std::fmt::Debug;
use std::hash::Hash;
use typecheck_core::{Instance, Schema};
use xmlta_automata::{Nfa, Regex};
use xmlta_base::{Alphabet, Symbol};
use xmlta_schema::{Dtd, Nta, StringLang};
use xmlta_service::cache::fingerprint;
use xmlta_service::{
    decode_instance, encode_instance, fingerprint_instance, gen, parse_instance, print_instance,
    ComponentFingerprints,
};
use xmlta_transducer::{Rhs, RhsNode, Transducer};

fn assert_same<T: Eq + Hash + Debug>(what: &str, a: &T, b: &T) {
    assert_eq!(a, b, "{what}: not ==");
    assert_eq!(
        fingerprint(a),
        fingerprint(b),
        "{what}: == but not fingerprint-equal"
    );
}

fn assert_same_instance(what: &str, a: &Instance, b: &Instance) {
    assert!(a == b, "{what}: instances not ==");
    assert_eq!(
        fingerprint_instance(a),
        fingerprint_instance(b),
        "{what}: == but not fingerprint-equal"
    );
    assert_eq!(
        ComponentFingerprints::of(a),
        ComponentFingerprints::of(b),
        "{what}: == but component fingerprints differ"
    );
}

fn assert_differ(what: &str, a: &Instance, b: &Instance) {
    assert!(a != b, "{what}: the edit left the instance ==");
    assert_ne!(
        fingerprint_instance(a),
        fingerprint_instance(b),
        "{what}: the edit kept the fingerprint"
    );
    assert_ne!(
        ComponentFingerprints::of(a),
        ComponentFingerprints::of(b),
        "{what}: the edit kept every component fingerprint"
    );
}

/// A DTD, an NTA and a transducer over `n` symbols, each with one entry
/// per symbol, inserted in symbol order or (`reversed`) against it.
fn tables(n: usize, reversed: bool) -> (Dtd, Nta, Transducer) {
    let mut order: Vec<u32> = (0..n as u32).collect();
    if reversed {
        order.reverse();
    }
    let next = |i: u32| (i + 1) % n as u32;
    let mut dtd = Dtd::new(n, Symbol(0));
    let mut nta = Nta::new(n);
    nta.add_states(n);
    nta.set_final(0);
    let mut rules = Vec::new();
    for &i in &order {
        let s = Symbol(i);
        dtd.set_rule(s, StringLang::Regex(Regex::Sym(next(i))));
        nta.set_transition(i, s, Nfa::single_word(n, &[next(i)]));
        let rhs = Rhs::new(vec![RhsNode::Elem(
            Symbol(next(i)),
            vec![RhsNode::State(0)],
        )]);
        rules.push(((0, s), rhs));
    }
    let t = Transducer::from_parts(vec!["q".to_string()], 0, rules, Vec::new(), n)
        .expect("one rule per symbol");
    (dtd, nta, t)
}

#[test]
fn entries_inserted_in_opposite_orders_are_equal_and_fingerprint_equal() {
    // Small hash tables collide often, so for some sizes the two insertion
    // orders leave the entries in different iteration orders; the check
    // below insists that each type meets such a size.
    let mut reordered = [false; 3];
    for n in 2..=24 {
        let (d1, n1, t1) = tables(n, false);
        let (d2, n2, t2) = tables(n, true);
        let dtd_keys = |d: &Dtd| d.rules().map(|(s, _)| s).collect::<Vec<_>>();
        let nta_keys = |a: &Nta| a.transitions().map(|(q, s, _)| (q, s)).collect::<Vec<_>>();
        let rule_keys = |t: &Transducer| t.rules().map(|(q, s, _)| (q, s)).collect::<Vec<_>>();
        reordered[0] |= dtd_keys(&d1) != dtd_keys(&d2);
        reordered[1] |= nta_keys(&n1) != nta_keys(&n2);
        reordered[2] |= rule_keys(&t1) != rule_keys(&t2);

        assert_same(&format!("dtd n={n}"), &d1, &d2);
        assert_same(&format!("nta n={n}"), &n1, &n2);
        assert!(t1 == t2, "transducer n={n}: not ==");

        let alphabet = Alphabet::from_names((0..n).map(|i| format!("s{i}")));
        let dtds = |d: &Dtd, t: &Transducer| {
            Instance::dtds(alphabet.clone(), d.clone(), d.clone(), t.clone())
        };
        let ntas = |a: &Nta, t: &Transducer| {
            Instance::ntas(alphabet.clone(), a.clone(), a.clone(), t.clone())
        };
        assert_same_instance(
            &format!("dtd instance n={n}"),
            &dtds(&d1, &t1),
            &dtds(&d2, &t2),
        );
        assert_same_instance(
            &format!("nta instance n={n}"),
            &ntas(&n1, &t1),
            &ntas(&n2, &t2),
        );
    }
    assert_eq!(
        reordered, [true; 3],
        "[dtd, nta, transducer]: no size iterated the two tables differently"
    );
}

/// Seeded generator instances with a tree-automata instance alongside.
fn instances() -> Vec<(String, Instance)> {
    let mut out: Vec<(String, Instance)> = (0..3)
        .flat_map(|seed| gen::mixed_sources(24, 4, seed).expect("generators print"))
        .map(|(name, source)| {
            (
                name,
                parse_instance(&source).expect("generated source parses"),
            )
        })
        .collect();
    let w = xmlta_hardness::workloads::delrelab_family(3);
    out.push((w.name, w.instance));
    out
}

#[test]
fn equal_round_trips_fingerprint_equal() {
    let mut reparsed_equal = 0;
    for (name, i) in instances() {
        let bytes = encode_instance(&i).expect("encodes");
        let decoded = decode_instance(&bytes).expect("decodes");
        assert!(decoded == i, "{name}: decode(encode(i)) != i");
        let printed = print_instance(&i).expect("prints");
        let reparsed = parse_instance(&printed).expect("print parses");
        for (how, r) in [
            ("decode(encode(i))", &decoded),
            ("parse(print(i))", &reparsed),
        ] {
            if *r == i {
                assert_same_instance(&format!("{name}: {how}"), r, &i);
            }
        }
        reparsed_equal += usize::from(reparsed == i);
    }
    assert!(
        reparsed_equal > 0,
        "no parse(print(i)) was == i; the implication went unchecked"
    );
}

#[test]
fn a_one_rule_edit_changes_equality_and_fingerprints() {
    for (name, i) in instances() {
        // One transducer rule dropped.
        let t = &i.transducer;
        let (q, a, _) = t.sorted_rules()[0];
        let state = &t.state_names()[q as usize];
        let edited = Instance {
            transducer: t.without_rule(state, a).expect("the rule exists"),
            ..i.clone()
        };
        assert_differ(
            &format!("{name}: rule ({state}, {a:?}) dropped"),
            &i,
            &edited,
        );

        // One input-schema rule replaced.
        let mut input = i.input.clone();
        match &mut input {
            Schema::Dtd(d) => {
                let (sym, _) = d.sorted_rules()[0];
                let lang = StringLang::Regex(Regex::Star(Box::new(Regex::Sym(sym.0))));
                assert_ne!(d.rule(sym), Some(&lang), "{name}: the edit is a no-op");
                d.set_rule(sym, lang);
            }
            Schema::Nta(a) => {
                let (q, sym, _) = a.sorted_transitions()[0];
                let nfa = Nfa::empty_language(a.num_states());
                assert_ne!(
                    a.transition(q, sym),
                    Some(&nfa),
                    "{name}: the edit is a no-op"
                );
                a.set_transition(q, sym, nfa);
            }
        }
        let edited = Instance { input, ..i.clone() };
        assert_differ(
            &format!("{name}: one input-schema rule replaced"),
            &i,
            &edited,
        );
    }
}
