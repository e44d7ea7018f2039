//! Round-trip properties of the textual instance format, and agreement of
//! the cached engine path with the direct one.
//!
//! The printed form is canonical, so parse∘print is the identity **on
//! printed forms**: `print(parse(print(x))) == print(x)`. On ASTs it is the
//! identity for regex/RE+ rules and automaton blocks (checked here through
//! the printed fixpoint plus semantic probes); NTA transition languages
//! round-trip up to language equivalence (regex extraction), which the
//! typecheck-outcome agreement checks cover.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use typecheck_core::{typecheck, Instance, Schema};
use xmlta_hardness::workloads::{self, Workload};
use xmlta_service::{parse_instance, print_instance, typecheck_cached, SchemaCache};

/// All-DTD workload families, spanning regex, RE+, NFA, and DFA rules plus
/// XPath selectors.
fn dtd_workloads() -> Vec<Workload> {
    vec![
        workloads::filtering_family(3),
        workloads::failing_filtering_family(2),
        workloads::copying_family(2),
        workloads::deletion_family(2),
        workloads::random_layered_family(5, 3, 3),
        workloads::nfa_schema_family(3),
        workloads::replus_family(3),
        workloads::xpath_family(3),
        workloads::regex_schema_family(4),
        workloads::example11_workload(),
    ]
}

/// print → parse → print reaches a fixpoint, and the reparsed instance
/// has the same typecheck outcome.
fn assert_roundtrip(name: &str, instance: &Instance) {
    let printed = print_instance(instance).unwrap_or_else(|e| panic!("{name}: unprintable: {e}"));
    let reparsed = parse_instance(&printed)
        .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}\n--- printed ---\n{printed}"));
    let reprinted =
        print_instance(&reparsed).unwrap_or_else(|e| panic!("{name}: reprint failed: {e}"));
    assert_eq!(
        printed, reprinted,
        "{name}: printed form must be a parse∘print fixpoint"
    );
    let direct = typecheck(instance).unwrap_or_else(|e| panic!("{name}: direct engine: {e}"));
    let via_text = typecheck(&reparsed).unwrap_or_else(|e| panic!("{name}: reparsed engine: {e}"));
    assert_eq!(
        direct.type_checks(),
        via_text.type_checks(),
        "{name}: outcome must survive the textual round-trip"
    );
}

#[test]
fn workload_families_roundtrip() {
    for w in dtd_workloads() {
        assert_roundtrip(&w.name, &w.instance);
    }
}

#[test]
fn nta_instances_roundtrip_semantically() {
    // NTA transition languages print as regexes extracted by state
    // elimination, which is language-preserving but not AST-preserving, so
    // (unlike DTDs and transducers) no textual fixpoint is promised.
    // Instead: the reparsed NTAs accept exactly the same trees and the
    // typecheck outcome survives.
    for n in [2usize, 3, 4] {
        let w = workloads::delrelab_family(n);
        let printed = print_instance(&w.instance).expect("printable");
        let reparsed =
            parse_instance(&printed).unwrap_or_else(|e| panic!("{}: {e}\n{printed}", w.name));
        let pairs = [
            (&w.instance.input, &reparsed.input),
            (&w.instance.output, &reparsed.output),
        ];
        for (orig, back) in pairs {
            let (a, b) = match (orig, back) {
                (Schema::Nta(a), Schema::Nta(b)) => (a, b),
                other => panic!("{}: schema kind changed: {other:?}", w.name),
            };
            assert_eq!(a.num_states(), b.num_states());
            for t in xmlta_tree::random::enumerate_trees(w.instance.alphabet.len(), 2, 2) {
                assert_eq!(a.accepts(&t), b.accepts(&t), "{}: tree {t:?}", w.name);
            }
        }
        let direct = typecheck(&w.instance).expect("direct engine");
        let via_text = typecheck(&reparsed).expect("reparsed engine");
        assert_eq!(direct.type_checks(), via_text.type_checks(), "{}", w.name);
    }
}

#[test]
fn dfa_compiled_schemas_roundtrip_structurally() {
    // DFA rules print as exact automaton blocks: the reparsed rule tables
    // must match state for state, not just language for language.
    let w = workloads::filtering_family(2);
    let (din, dout) = match (&w.instance.input, &w.instance.output) {
        (Schema::Dtd(i), Schema::Dtd(o)) => (i.compile_to_dfas(), o.compile_to_dfas()),
        _ => unreachable!("filtering instances are DTD-based"),
    };
    let compiled = Instance::dtds(
        w.instance.alphabet.clone(),
        din,
        dout,
        w.instance.transducer.clone(),
    );
    let printed = print_instance(&compiled).expect("printable");
    let reparsed = parse_instance(&printed).expect("reparses");
    let (din2, din1) = match (&reparsed.input, &compiled.input) {
        (Schema::Dtd(a), Schema::Dtd(b)) => (a, b),
        _ => unreachable!(),
    };
    for (sym, lang) in din1.rules() {
        let lang2 = din2.rule(sym).expect("rule survives");
        let (d1, d2) = match (lang, lang2) {
            (xmlta_schema::StringLang::Dfa(a), xmlta_schema::StringLang::Dfa(b)) => (a, b),
            other => panic!("rule representation changed: {other:?}"),
        };
        assert_eq!(d1.num_states(), d2.num_states());
        assert_eq!(d1.initial_state(), d2.initial_state());
        for q in 0..d1.num_states() as u32 {
            assert_eq!(d1.is_final_state(q), d2.is_final_state(q));
            for l in 0..d1.alphabet_size() as u32 {
                assert_eq!(d1.step(q, l), d2.step(q, l), "state {q} letter {l}");
            }
        }
    }
    assert_roundtrip("filtering/compiled", &compiled);
}

#[test]
fn cached_and_uncached_engines_agree_on_workloads() {
    let cache = SchemaCache::new();
    for w in dtd_workloads() {
        let direct = typecheck(&w.instance).expect("direct engine");
        // Twice through the cache: once compiling, once hitting.
        for round in 0..2 {
            let cached = typecheck_cached(&cache, &w.instance).expect("cached engine");
            assert_eq!(
                direct.type_checks(),
                cached.type_checks(),
                "{} (cache round {round})",
                w.name
            );
            assert_eq!(
                direct.type_checks(),
                w.expect_typechecks,
                "{} expected outcome",
                w.name
            );
        }
    }
    let stats = cache.stats();
    assert!(stats.schema_hits > 0, "second rounds must hit: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random layered instances (regex-rule DTDs + random transducers)
    /// reach the printed fixpoint, agree on outcome after reparse, and
    /// agree between the cached and direct engine paths.
    #[test]
    fn random_layered_instances_roundtrip(seed in 0u64..10_000) {
        let w = workloads::random_layered_family(seed, 3, 3);
        assert_roundtrip(&w.name, &w.instance);
        let cache = SchemaCache::new();
        let direct = typecheck(&w.instance).expect("direct");
        let cached = typecheck_cached(&cache, &w.instance).expect("cached");
        prop_assert_eq!(direct.type_checks(), cached.type_checks());
    }

    /// The transducer section round-trips transformations, not just
    /// shapes: the reparsed transducer maps sample documents to the same
    /// output trees.
    #[test]
    fn reparsed_transducer_agrees_on_documents(seed in 0u64..10_000) {
        let w = workloads::random_layered_family(seed, 3, 3);
        let printed = print_instance(&w.instance).expect("printable");
        let reparsed = parse_instance(&printed).expect("reparses");
        let din = match &w.instance.input {
            Schema::Dtd(d) => d,
            Schema::Nta(_) => unreachable!("layered instances are DTD-based"),
        };
        if let Some(doc) = din.sample() {
            prop_assert_eq!(
                w.instance.transducer.apply(&doc),
                reparsed.transducer.apply(&doc),
                "sample document must transform identically"
            );
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let t = xmlta_transducer::random::random_transducer(
            &mut rng,
            w.instance.alphabet.len().max(1),
            xmlta_transducer::random::RandomTransducerParams::default(),
        );
        // Deletion-heavy random transducers too (selector-free class).
        let inst = Instance {
            alphabet: w.instance.alphabet.clone(),
            input: w.instance.input.clone(),
            output: w.instance.output.clone(),
            transducer: t,
        };
        let printed = print_instance(&inst).expect("printable");
        let reparsed = parse_instance(&printed).expect("reparses");
        prop_assert_eq!(&print_instance(&reparsed).expect("reprint"), &printed);
        if let Some(doc) = din.sample() {
            prop_assert_eq!(inst.transducer.apply(&doc), reparsed.transducer.apply(&doc));
        }
    }
}

#[test]
fn parse_errors_carry_positions() {
    let bad = "input dtd {\n  start r\n  r -> ((x\n}\n";
    let err = parse_instance(bad).unwrap_err();
    assert_eq!(err.loc.line, 3);
    assert!(err.loc.col > 8, "column points into the rhs: {err}");

    let missing = parse_instance("").unwrap_err();
    assert!(missing.message.contains("no input schema"), "{missing}");

    let undeclared = "\
input nta {
  states a b
  final b
  (a, x) -> a c
}
output nta {
  states a
  final a
  (a, x) -> eps
}
transducer {
  states q
  initial q
  (q, x) -> x
}
";
    let err = parse_instance(undeclared).unwrap_err();
    assert_eq!(err.loc.line, 4);
    assert!(err.message.contains("undeclared state `c`"), "{err}");

    let dup = "\
input dtd {
  start r
  r -> x
  r -> x x
}
";
    let err = parse_instance(dup).unwrap_err();
    assert_eq!(err.loc.line, 4);
    assert!(err.message.contains("duplicate rule"), "{err}");

    let bad_rhs = "\
input dtd {
  start r
  r -> x
}
output dtd {
  start r
  r -> x
}
transducer {
  states q
  initial q
  (q, r) -> r(q
}
";
    let err = parse_instance(bad_rhs).unwrap_err();
    assert_eq!(err.loc.line, 12, "rhs error pinned to its rule line: {err}");
}

#[test]
fn output_elements_shadowed_by_state_names_do_not_print() {
    use xmlta_base::Alphabet;
    use xmlta_schema::Dtd;
    use xmlta_transducer::{Rhs, RhsNode, Transducer};
    // The rhs grammar resolves bare names as states first, so an element
    // named like a state would re-parse as that state: printing must
    // refuse it, at the top level and nested below another element.
    let mut alphabet = Alphabet::new();
    let r = alphabet.intern("r");
    let q = alphabet.intern("q");
    let din = Dtd::parse("r -> ", &mut alphabet).expect("dtd parses");
    let dout = Dtd::parse("r -> q?\nq -> ", &mut alphabet).expect("dtd parses");
    let shadowed = [
        vec![RhsNode::Elem(q, Vec::new())],
        vec![RhsNode::Elem(r, vec![RhsNode::Elem(q, Vec::new())])],
    ];
    for nodes in shadowed {
        let rules = vec![((0, r), Rhs { nodes })];
        let transducer = Transducer::from_parts(vec!["q".to_string()], 0, rules, Vec::new(), 2)
            .expect("transducer builds");
        let instance = Instance {
            alphabet: alphabet.clone(),
            input: Schema::Dtd(din.clone()),
            output: Schema::Dtd(dout.clone()),
            transducer,
        };
        let err = print_instance(&instance).expect_err("a shadowed element must not print");
        assert!(err.message.contains("shadowed by a state"), "{err}");
    }
}
