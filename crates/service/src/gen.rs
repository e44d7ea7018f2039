//! Instance-file generators for batch workloads.
//!
//! The bench families top out well under a millisecond per instance; the
//! generators here serve two bigger purposes: **scale** (filtering depths
//! an order of magnitude past the bench sweeps, wider layered schemas) and
//! **repetition** (batches of thousands of instances drawn from a few
//! schema groups, the shape the compiled-schema cache is built for).
//! Everything is seeded and deterministic — no clocks, no global RNG.

use crate::error::PrintError;
use crate::print::print_instance;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use typecheck_core::Instance;
use xmlta_base::Alphabet;
use xmlta_hardness::workloads;
use xmlta_schema::{generate, Dtd, StringLang};
use xmlta_transducer::random::{random_transducer, RandomTransducerParams};
use xmlta_transducer::RhsNode;

/// A generated instance file: `(file_name, contents)`.
pub type GeneratedFile = (String, String);

/// The filtering family (Example 10 generalized) at `depth` nested section
/// levels, printed in the textual format. The bench sweep stops at depth
/// 32; this accepts any depth.
pub fn filtering_source(depth: usize) -> Result<String, PrintError> {
    print_instance(&workloads::filtering_family(depth).instance)
}

/// The failing filtering variant (strict output schema): typechecking
/// yields a counterexample.
pub fn failing_filtering_source(depth: usize) -> Result<String, PrintError> {
    print_instance(&workloads::failing_filtering_family(depth).instance)
}

/// A schema-compilation-heavy instance: a `width`-way alternation-star
/// regex rule whose Glushkov + subset construction dominates the engine
/// run — the shape where the schema cache saves the most.
pub fn regex_schema_source(width: usize) -> Result<String, PrintError> {
    print_instance(&workloads::regex_schema_family(width).instance)
}

/// A random layered instance: the schema pair is determined by
/// `group_seed` alone (so all variants of a group share it — cache food),
/// while the transducer varies with `variant`. The output schema is
/// universal over the emitted root, so the instance always typechecks.
pub fn layered_source(
    group_seed: u64,
    layers: usize,
    symbols_per_layer: usize,
    variant: u64,
) -> Result<String, PrintError> {
    print_instance(&layered_instance(
        group_seed,
        layers,
        symbols_per_layer,
        variant,
    ))
}

fn layered_instance(
    group_seed: u64,
    layers: usize,
    symbols_per_layer: usize,
    variant: u64,
) -> Instance {
    let mut rng = SmallRng::seed_from_u64(group_seed.wrapping_mul(0x9E37_79B9));
    let mut a = Alphabet::new();
    let params = generate::LayeredDtdParams {
        layers,
        symbols_per_layer,
        ..generate::LayeredDtdParams::default()
    };
    // Rules stay in regex form: compiling them is exactly the work the
    // schema cache amortizes across the group.
    let din = generate::random_layered_dtd(&mut rng, params, &mut a);
    let mut trng =
        SmallRng::seed_from_u64(group_seed ^ variant.wrapping_mul(0xA076_1D64_78BD_642F));
    let t = random_transducer(
        &mut trng,
        a.len(),
        RandomTransducerParams {
            num_states: 3,
            allow_deletion: false,
            ..RandomTransducerParams::default()
        },
    );
    // Universal output schema rooted at whatever the transducer emits on
    // the input start symbol (mirrors `workloads::random_layered_family`).
    let out_root = match t.rule(t.initial_state(), din.start()) {
        Some(rhs) => match rhs.nodes.as_slice() {
            [RhsNode::Elem(s, _)] => *s,
            _ => din.start(),
        },
        None => din.start(),
    };
    let mut dout = Dtd::new(a.len(), out_root);
    let universal = xmlta_automata::Dfa::universal(a.len());
    for s in a.symbols() {
        dout.set_rule(s, StringLang::dfa(universal.clone()));
    }
    Instance::dtds(a, din, dout, t)
}

/// A true shared-schema fleet variant: like [`layered_source`], but the
/// transducer's rule on `(initial, start)` is normalized to emit the input
/// start symbol at the root (children kept from the random rule, so
/// variants still differ), which pins the output schema's root across the
/// whole group. Every instance of a `group_seed` therefore shares the
/// *entire* schema context — alphabet, input DTD, output DTD — the shape
/// delta `.xts` streams are built for: one schema section, `count`
/// transducer frames.
pub fn fleet_source(
    group_seed: u64,
    layers: usize,
    symbols_per_layer: usize,
    variant: u64,
) -> Result<String, PrintError> {
    print_instance(&fleet_instance(
        group_seed,
        layers,
        symbols_per_layer,
        variant,
    ))
}

fn fleet_instance(
    group_seed: u64,
    layers: usize,
    symbols_per_layer: usize,
    variant: u64,
) -> Instance {
    let mut instance = layered_instance(group_seed, layers, symbols_per_layer, variant);
    let start = match &instance.input {
        typecheck_core::Schema::Dtd(d) => d.start(),
        typecheck_core::Schema::Nta(_) => unreachable!("layered instances are DTD-based"),
    };
    let t = &instance.transducer;
    let rules: Vec<_> = t
        .rules()
        .map(|(q, a, rhs)| {
            let rhs = if q == t.initial_state() && a == start {
                // Keep the random rule's children (per-variant variance)
                // under a pinned root label.
                let children = match rhs.nodes.as_slice() {
                    [RhsNode::Elem(_, children)] => children.clone(),
                    nodes => nodes.to_vec(),
                };
                xmlta_transducer::Rhs::new(vec![RhsNode::Elem(start, children)])
            } else {
                rhs.clone()
            };
            ((q, a), rhs)
        })
        .collect();
    let normalized = xmlta_transducer::Transducer::from_parts(
        t.state_names().to_vec(),
        t.initial_state(),
        rules,
        t.selectors().to_vec(),
        t.alphabet_size(),
    )
    .expect("normalizing a valid transducer keeps it valid");
    // Re-root the output schema at the pinned symbol; rules stay the
    // group's universal set, so the pair is identical across variants.
    let universal = xmlta_automata::Dfa::universal(instance.alphabet.len());
    let mut dout = Dtd::new(instance.alphabet.len(), start);
    for s in instance.alphabet.symbols() {
        dout.set_rule(s, StringLang::dfa(universal.clone()));
    }
    instance.output = typecheck_core::Schema::Dtd(dout);
    instance.transducer = normalized;
    instance
}

/// A mixed batch of `count` instances drawn from `groups` schema groups.
///
/// Groups rotate through three shapes — filtering (depth grows with the
/// group index), layered (shared schema pair, per-instance transducer),
/// and wide-regex (schema compilation dominates) — and every 11th instance
/// is a failing filtering variant, so large batches always contain
/// counterexamples. File names embed the index and family for stable
/// ordering.
pub fn mixed_sources(
    count: usize,
    groups: usize,
    seed: u64,
) -> Result<Vec<GeneratedFile>, PrintError> {
    let groups = groups.max(1);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let g = i % groups;
        let (family, source) = if i % 11 == 10 {
            ("filtering-fail", failing_filtering_source(2 + g % 4)?)
        } else {
            match g % 3 {
                0 => ("filtering", filtering_source(4 + 2 * g)?),
                1 => (
                    "layered",
                    layered_source(seed ^ g as u64, 3, 3, (i / groups) as u64)?,
                ),
                _ => ("regex", regex_schema_source(12 + 4 * g)?),
            }
        };
        out.push((format!("gen-{i:05}-{family}.xti"), source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_batch, BatchItem, ItemStatus};
    use crate::cache::SchemaCache;

    #[test]
    fn mixed_sources_are_deterministic_and_checkable() {
        let a = mixed_sources(23, 4, 7).unwrap();
        let b = mixed_sources(23, 4, 7).unwrap();
        assert_eq!(a, b);
        let items: Vec<BatchItem> = a
            .into_iter()
            .map(|(name, source)| BatchItem::from_source(name, source))
            .collect();
        let cache = SchemaCache::new();
        let out = run_batch(&items, 2, Some(&cache));
        let (ok, ce, err) = out.tally();
        assert_eq!(err, 0, "no generated instance may error: {:?}", out.results);
        assert_eq!(ce, 2, "instances 10 and 21 are failing variants");
        assert_eq!(ok, 21);
        for r in &out.results {
            if r.name.contains("filtering-fail") {
                assert!(matches!(r.status, ItemStatus::CounterExample { .. }));
            } else {
                assert!(matches!(r.status, ItemStatus::TypeChecks), "{}", r.name);
            }
        }
        let stats = cache.stats();
        // Identical repeats short-circuit in the result memo before the
        // schema cache is consulted; shared-schema variants (distinct
        // transducers) still land schema-level hits.
        assert!(
            stats.memo_hits > 0,
            "repeated instances must hit the result memo: {stats:?}"
        );
        assert!(
            stats.memo_hits + stats.schema_hits > stats.schema_misses,
            "repeated-schema batch must hit a cache layer: {stats:?}"
        );
    }
}
