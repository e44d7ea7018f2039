//! Cross-validation: the complete engines agree with brute-force
//! enumeration on randomized small instances, and with each other.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use typecheck_core::naive::{typecheck_naive, Bounds};
use typecheck_core::{delrelab, lemma14, typecheck, Instance, Outcome, Schema};
use xmlta_base::Alphabet;
use xmlta_schema::convert::dtd_to_nta;
use xmlta_schema::{dta, generate, Dtd};
use xmlta_transducer::random::{random_transducer, RandomTransducerParams};

/// Builds a random small instance from a seed.
fn random_instance(seed: u64) -> (Alphabet, Dtd, Dtd, xmlta_transducer::Transducer) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut a = Alphabet::new();
    let din = generate::random_layered_dtd(
        &mut rng,
        generate::LayeredDtdParams {
            layers: 2,
            symbols_per_layer: 2,
            max_factors: 2,
            ..Default::default()
        },
        &mut a,
    );
    let t = random_transducer(
        &mut rng,
        a.len(),
        RandomTransducerParams {
            num_states: 2,
            max_rhs_depth: 1,
            max_rhs_width: 2,
            ..Default::default()
        },
    );
    // Output DTD: random layered over fresh symbols, with the start symbol
    // overridden to whatever the transducer emits at the root.
    let dout_raw = generate::random_layered_dtd(
        &mut rng,
        generate::LayeredDtdParams {
            layers: 2,
            symbols_per_layer: 2,
            max_factors: 2,
            ..Default::default()
        },
        &mut a,
    );
    let out_root = match t.rule(t.initial_state(), din.start()) {
        Some(rhs) => match rhs.nodes.as_slice() {
            [xmlta_transducer::RhsNode::Elem(s, _)] => *s,
            _ => din.start(),
        },
        None => din.start(),
    };
    let mut dout = dout_raw.with_start(out_root);
    dout.grow_alphabet(a.len());
    let mut din = din;
    din.grow_alphabet(a.len());
    (a, din, dout, t)
}

/// The key property: when brute force finds a counterexample within small
/// bounds, the complete engine must find one too; when the complete engine
/// says "typechecks", brute force must not find a counterexample.
#[test]
fn lemma14_agrees_with_bruteforce_on_random_instances() {
    let bounds = Bounds {
        max_depth: 3,
        max_width: 2,
        max_trees: 3000,
    };
    let mut checked = 0;
    for seed in 0..120u64 {
        let (a, din, dout, t) = random_instance(seed);
        let complete = lemma14::typecheck_dtds(&din, &dout, &t, a.len())
            .unwrap_or_else(|e| panic!("seed {seed}: engine error {e}"));
        let brute = typecheck_naive(&din, &dout, &t, bounds);
        if complete.type_checks() {
            assert!(
                brute.type_checks(),
                "seed {seed}: engine says typechecks but brute force found {:?}",
                brute.counter_example()
            );
        }
        if let Outcome::CounterExample(ce) = &brute {
            assert!(
                !complete.type_checks(),
                "seed {seed}: brute force counterexample {:?} missed by the engine",
                ce.input
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 120);
}

/// Counterexamples produced by the complete engine are always genuine.
#[test]
fn engine_counterexamples_are_genuine() {
    for seed in 0..120u64 {
        let (a, din, dout, t) = random_instance(seed);
        let outcome = lemma14::typecheck_dtds(&din, &dout, &t, a.len()).unwrap();
        if let Outcome::CounterExample(ce) = outcome {
            assert!(
                din.compile_to_dfas().accepts(&ce.input),
                "seed {seed}: counterexample input invalid"
            );
            let valid = match &ce.output {
                Some(o) => dout.compile_to_dfas().accepts(o),
                None => false,
            };
            assert!(!valid, "seed {seed}: counterexample output is schema-valid");
            // And the engine's reported output matches the transducer.
            assert_eq!(t.apply(&ce.input), ce.output, "seed {seed}");
        }
    }
}

/// The Theorem 20 engine, run over the DTDs' tree automata (the output one
/// completed to a `DTAc`), agrees with Lemma 14 on random deleting
/// relabelings, and every counterexample it reports is a certified "no":
/// a valid input whose image is the reported output, which is invalid.
#[test]
fn theorem20_agrees_with_lemma14_on_random_delrelabs() {
    let (mut checked, mut failing) = (0, 0);
    for seed in 0..600u64 {
        let (a, din, dout, t) = random_instance(seed);
        if delrelab::require_delrelab(&t).is_err() {
            continue;
        }
        let ain = dtd_to_nta(&din);
        let aout = dta::complete(&dtd_to_nta(&dout));
        let thm20 = delrelab::typecheck_delrelab(&ain, &aout, &t, a.len())
            .unwrap_or_else(|e| panic!("seed {seed}: Theorem 20 error {e}"));
        let l14 = lemma14::typecheck_dtds(&din, &dout, &t, a.len())
            .unwrap_or_else(|e| panic!("seed {seed}: Lemma 14 error {e}"));
        assert_eq!(
            thm20.type_checks(),
            l14.type_checks(),
            "seed {seed}: Theorem 20 and Lemma 14 disagree"
        );
        checked += 1;
        if let Outcome::CounterExample(ce) = thm20 {
            failing += 1;
            assert!(
                din.compile_to_dfas().accepts(&ce.input),
                "seed {seed}: counterexample input invalid"
            );
            assert_eq!(t.apply(&ce.input), ce.output, "seed {seed}");
            let valid = ce
                .output
                .as_ref()
                .is_some_and(|o| dout.compile_to_dfas().accepts(o));
            assert!(!valid, "seed {seed}: counterexample output is schema-valid");
        }
    }
    assert!(checked >= 100, "only {checked} deleting relabelings drawn");
    assert!(
        failing > 0 && failing < checked,
        "{failing} of {checked} failing: both verdicts must occur"
    );
}

/// The dispatcher agrees with the directly-invoked engine.
#[test]
fn dispatcher_routes_consistently() {
    for seed in 0..40u64 {
        let (a, din, dout, t) = random_instance(seed);
        let direct = lemma14::typecheck_dtds(&din, &dout, &t, a.len()).unwrap();
        let routed = typecheck(&Instance::dtds(a, din, dout, t)).unwrap();
        assert_eq!(direct.type_checks(), routed.type_checks(), "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Transducer application distributes over the hedge semantics: the
    /// output of `apply` matches recomputing `T^{q0}` by hand.
    #[test]
    fn apply_matches_manual_expansion(seed in 0u64..5000) {
        let (_a, din, _dout, t) = random_instance(seed);
        if let Some(doc) = din.sample() {
            let hedge = t.apply_state(t.initial_state(), &doc);
            let tree = t.apply(&doc);
            match tree {
                Some(tr) => prop_assert_eq!(vec![tr], hedge),
                None => prop_assert!(hedge.len() != 1),
            }
        }
    }

    /// Schema round-trip: DTD ↔ NTA conversions agree on membership for
    /// sampled and mutated trees.
    #[test]
    fn dtd_nta_membership_agree(seed in 0u64..2000) {
        let (_a, din, _dout, _t) = random_instance(seed);
        let nta = xmlta_schema::convert::dtd_to_nta(&din);
        if let Some(mut doc) = din.sample() {
            prop_assert!(nta.accepts(&doc));
            // Mutate: relabel the root (usually invalidates).
            let other = xmlta_base::Symbol(
                (doc.label.0 + 1) % din.alphabet_size() as u32
            );
            doc.label = other;
            prop_assert_eq!(din.accepts(&doc), nta.accepts(&doc));
        }
    }

    /// The typecheck outcome is deterministic.
    #[test]
    fn outcome_is_deterministic(seed in 0u64..500) {
        let (a, din, dout, t) = random_instance(seed);
        let o1 = lemma14::typecheck_dtds(&din, &dout, &t, a.len()).unwrap();
        let o2 = lemma14::typecheck_dtds(&din, &dout, &t, a.len()).unwrap();
        prop_assert_eq!(o1.type_checks(), o2.type_checks());
    }
}

/// Schema enum helpers round-trip sizes.
#[test]
fn instance_size_accounts_all_parts() {
    let (a, din, dout, t) = random_instance(3);
    let inst = Instance::dtds(a, din.clone(), dout.clone(), t.clone());
    assert_eq!(inst.size(), din.size() + dout.size() + t.size());
    match (&inst.input, &inst.output) {
        (Schema::Dtd(d1), Schema::Dtd(d2)) => {
            assert_eq!(d1.size(), din.size());
            assert_eq!(d2.size(), dout.size());
        }
        _ => unreachable!(),
    }
}
