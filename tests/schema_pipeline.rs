//! Cross-crate schema machinery: conversions, products, emptiness,
//! finiteness, determinization — the Proposition 4 / Lemma 3 toolbox.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use xmlta_base::Alphabet;
use xmlta_schema::{convert, dta, emptiness, finiteness, generate, product, Dtd};

fn random_dtd(seed: u64, layers: usize) -> (Alphabet, Dtd) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut a = Alphabet::new();
    let d = generate::random_layered_dtd(
        &mut rng,
        generate::LayeredDtdParams {
            layers,
            ..Default::default()
        },
        &mut a,
    );
    (a, d)
}

#[test]
fn dtd_nta_products_intersect_languages() {
    for seed in 0..10u64 {
        let (_, d) = random_dtd(seed, 2);
        let n1 = convert::dtd_to_nta(&d);
        let n2 = convert::dtd_to_nta(&d);
        let p = product::intersect(&n1, &n2);
        // L ∩ L = L: the product accepts the DTD's sample.
        let t = d.sample().unwrap();
        assert!(p.accepts(&t), "seed {seed}");
        assert!(!emptiness::is_empty(&p));
    }
}

#[test]
fn witnesses_accepted_by_their_automata() {
    for seed in 0..10u64 {
        let (_, d) = random_dtd(seed, 3);
        let nta = convert::dtd_to_nta(&d);
        let w = emptiness::witness_tree(&nta, 50_000).expect("non-empty");
        assert!(nta.accepts(&w), "seed {seed}");
        assert!(d.accepts(&w), "seed {seed}");
    }
}

#[test]
fn finiteness_matches_structure() {
    // A DTD with a starred rule is infinite; a fixed-arity chain is finite.
    let mut a = Alphabet::new();
    let inf = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
    assert!(!finiteness::is_finite(&convert::dtd_to_nta(&inf)));
    let fin = Dtd::parse("r -> x x\nx -> ", &mut a).unwrap();
    assert!(finiteness::is_finite(&convert::dtd_to_nta(&fin)));
}

#[test]
fn completion_preserves_language_and_determinism() {
    for seed in 0..6u64 {
        let (_, d) = random_dtd(seed, 2);
        let nta = convert::dtd_to_nta(&d);
        assert!(
            dta::is_deterministic(&nta),
            "DTD automata are deterministic"
        );
        let completed = dta::complete(&nta);
        assert!(dta::is_deterministic(&completed));
        assert!(dta::is_complete(&completed));
        let t = d.sample().unwrap();
        assert_eq!(nta.accepts(&t), completed.accepts(&t));
        // Complement flips acceptance.
        let comp = dta::complement_complete(&completed);
        assert!(!comp.accepts(&t));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random trees: DTD validation ⟺ NTA membership ⟺ completed-DTA run
    /// finality.
    #[test]
    fn membership_triangle(seed in 0u64..500, tseed in 0u64..500) {
        let (_a, d) = random_dtd(seed, 2);
        let nta = convert::dtd_to_nta(&d);
        let completed = dta::complete(&nta);
        let mut rng = SmallRng::seed_from_u64(tseed);
        let tree = xmlta_tree::random::random_tree(
            &mut rng, d.alphabet_size(), 3, 2,
        );
        let by_dtd = d.accepts(&tree);
        let by_nta = nta.accepts(&tree);
        let by_dta = completed.accepts(&tree);
        prop_assert_eq!(by_dtd, by_nta);
        prop_assert_eq!(by_nta, by_dta);
    }
}

/// The Lemma 14 engine samples counterexample siblings with its own
/// productive vector ([`Dtd::sample_tree_with`]); for every symbol of every
/// DTD workload family that must be the very tree
/// [`Dtd::sample_tree`] builds from scratch.
#[test]
fn engine_productive_samples_match_fresh_samples() {
    use typecheck_core::lemma14::Lemma14Engine;
    use typecheck_core::Schema;
    use xmlta_hardness::workloads;
    use xmlta_transducer::Transducer;

    let mut families = vec![workloads::example11_workload()];
    for n in [1usize, 2, 4] {
        families.push(workloads::filtering_family(n));
        families.push(workloads::failing_filtering_family(n));
        families.push(workloads::copying_family(n));
        families.push(workloads::deletion_family(n));
        families.push(workloads::nfa_schema_family(n + 1));
        families.push(workloads::replus_family(n));
        families.push(workloads::xpath_family(n));
        families.push(workloads::regex_schema_family(n));
        families.push(workloads::random_layered_family(n as u64, 3, 3));
    }
    let mut sampled = 0;
    for w in families {
        let (Schema::Dtd(din), Schema::Dtd(dout)) = (&w.instance.input, &w.instance.output) else {
            continue;
        };
        // Productivity depends on the input DTD alone; a rule-less
        // transducer keeps selector families usable.
        let sigma = w.instance.alphabet_size();
        let t = Transducer::from_parts(vec!["q".to_string()], 0, Vec::new(), Vec::new(), sigma)
            .expect("transducer builds");
        let engine = Lemma14Engine::new(din, dout, &t, sigma).expect("engine builds");
        let productive = engine.productive();
        // The engine samples from `d_in` grown to its own alphabet.
        let mut grown = din.clone();
        grown.grow_alphabet(productive.len());
        assert_eq!(productive, grown.productive_symbols(), "{}", w.name);
        for s in 0..productive.len() {
            let sym = xmlta_base::Symbol::from_index(s);
            assert_eq!(
                grown.sample_tree_with(sym, productive),
                grown.sample_tree(sym),
                "{}: symbol #{s}",
                w.name
            );
            sampled += 1;
        }
    }
    assert!(sampled > 100, "sampled {sampled} symbols");
}
