//! Incremental re-typechecking across instance versions.
//!
//! The serving layer's `update` op edits a registered instance and wants a
//! verdict *without* paying a from-scratch check. Three reuse layers stack:
//!
//! 1. **cache components** — the edited instance shares its schema
//!    fingerprints (and almost all rule fingerprints) with its predecessor,
//!    so every compiled rule DFA, schema, and `B_out` product is a cache
//!    hit ([`crate::cache::ComponentFingerprints`]);
//! 2. **the result memo** — an edit that lands on a previously checked
//!    version (e.g. an undo) short-circuits on the combined fingerprint;
//! 3. **the retained engine** (this module) — for DTD/DTD instances without
//!    selectors, the Lemma 14 engine itself is kept alive across versions:
//!    a transducer edit invalidates only the ancestor closure of the edited
//!    symbols and re-runs the fixpoint from that dirty set, reusing every
//!    retained walk outside it
//!    ([`Lemma14Engine::apply_transducer_edit`]).
//!
//! Verdict fidelity: a [`RetainedEngine::build`] mirrors the cached
//! from-scratch pipeline exactly, so its rendered status is byte-identical
//! to [`crate::check_instance`]. An *incrementally updated* engine is
//! guaranteed to agree on the **verdict** (TypeChecks vs not — the
//! invalidation is sound and complete) but may discover a *different*
//! counterexample tree than a fresh engine would. So the incremental entry
//! point, [`RetainedEngine::recheck`], decides the verdict only; callers
//! that pin byte transcripts re-render failures through the canonical path.

use crate::batch::{render_status, ItemStatus};
use crate::cache::SchemaCache;
use typecheck_core::lemma14::Lemma14Engine;
use typecheck_core::{Instance, Outcome, Schema, TypecheckError};
use xmlta_transducer::Transducer;

/// A Lemma 14 engine retained across instance versions.
pub struct RetainedEngine {
    engine: Lemma14Engine,
}

/// What an incremental update reused, for observability.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateReuse {
    /// Walks that survived the invalidation (reused verbatim or extended).
    pub retained_walks: usize,
    /// Symbols in the invalidated ancestor closure (the re-run seed set).
    pub dirty_symbols: usize,
}

impl RetainedEngine {
    /// Whether the retained-engine path can serve this instance: both
    /// schemas DTDs and no selectors — exactly the instances the cached
    /// from-scratch path routes to the Lemma 14 engine.
    pub fn applicable(instance: &Instance) -> bool {
        matches!(
            (&instance.input, &instance.output),
            (Schema::Dtd(_), Schema::Dtd(_))
        ) && !instance.transducer.uses_selectors()
    }

    /// Builds the engine for `instance` and runs a full check, compiling
    /// both schemas through `cache` — the same pipeline
    /// [`crate::cache::typecheck_cached`] uses for DTD instances, so the
    /// rendered status is byte-identical to the from-scratch path. Returns
    /// `None` for the engine when the instance is not
    /// [`RetainedEngine::applicable`], the from-scratch dispatch would not
    /// pick the Lemma 14 engine, or the engine errors.
    pub fn build(cache: &SchemaCache, instance: &Instance) -> (Option<RetainedEngine>, ItemStatus) {
        let _span = xmlta_obs::span("engine_build");
        let (Schema::Dtd(din), Schema::Dtd(dout)) = (&instance.input, &instance.output) else {
            return (
                None,
                render_status(crate::cache::typecheck_cached(cache, instance), instance),
            );
        };
        let din = cache.compile_dtd(din);
        let dout = cache.compile_dtd(dout);
        if din.is_replus_dtd() && dout.is_replus_dtd() {
            // Two rule-less DTDs: `typecheck_core::typecheck` routes these
            // to the RE+ engine, whose witness bytes may differ.
            return (
                None,
                render_status(crate::cache::typecheck_cached(cache, instance), instance),
            );
        }
        let result = (|| {
            let mut engine =
                Lemma14Engine::new(&din, &dout, &instance.transducer, instance.alphabet_size())?;
            engine.run_fixpoint()?;
            engine.compute_reachable();
            let outcome = engine.outcome()?;
            Ok::<_, TypecheckError>((engine, outcome))
        })();
        match result {
            Ok((engine, outcome)) => (
                Some(RetainedEngine { engine }),
                render_status(Ok(outcome), instance),
            ),
            Err(e) => (None, render_status(Err(e), instance)),
        }
    }

    /// Applies a transducer edit and re-decides the verdict incrementally:
    /// only the ancestor closure of the edited symbols is invalidated and
    /// re-run, and only the pairs on that closure are searched again for a
    /// violation. Returns whether the edited instance typechecks; no
    /// counterexample is built.
    ///
    /// On `Ok`, the engine reflects the new transducer and the verdict
    /// equals a from-scratch check's. On `Err` the engine may be stale —
    /// discard it and fall back to a full check.
    pub fn recheck(&mut self, t_new: &Transducer) -> Result<(bool, UpdateReuse), TypecheckError> {
        let span = xmlta_obs::span("invalidate");
        let seeds = self.engine.apply_transducer_edit(t_new)?;
        let reuse = UpdateReuse {
            retained_walks: self.engine.retained_walks(),
            dirty_symbols: seeds.len(),
        };
        span.finish();
        let _span = xmlta_obs::span("refixpoint");
        self.engine.run_fixpoint_seeded(&seeds)?;
        self.engine.compute_reachable();
        Ok((self.engine.type_checks()?, reuse))
    }

    /// [`RetainedEngine::recheck`] plus, for a failing verdict, the
    /// updated engine's own counterexample. That witness may differ from
    /// a fresh engine's (see the module docs).
    pub fn update(&mut self, t_new: &Transducer) -> Result<(Outcome, UpdateReuse), TypecheckError> {
        let (type_checks, reuse) = self.recheck(t_new)?;
        let outcome = if type_checks {
            Outcome::TypeChecks
        } else {
            self.engine.outcome()?
        };
        Ok((outcome, reuse))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_instance;
    use crate::parse::parse_instance;
    use std::sync::Arc;

    const BASE: &str = "\
input dtd {
  start r
  r -> x x
  x ->
}
output dtd {
  start r
  r -> y y
  y ->
}
transducer {
  states root q
  initial root
  (root, r) -> r(q)
  (q, x) -> y
}
";

    fn with_rule(rhs: &str) -> Arc<Instance> {
        let src = BASE.replace("(q, x) -> y", &format!("(q, x) -> {rhs}"));
        Arc::new(parse_instance(&src).expect("parses"))
    }

    #[test]
    fn retained_engine_matches_check_instance() {
        let cache = SchemaCache::new();
        let v1 = with_rule("y");
        let (engine, status) = RetainedEngine::build(&cache, &v1);
        let mut engine = engine.expect("applicable");
        assert_eq!(status, check_instance(&v1, Some(&cache)));
        assert_eq!(status, ItemStatus::TypeChecks);
        // Incremental edit to a violating version.
        let v2 = with_rule("y y");
        let (outcome, reuse) = engine.update(&v2.transducer).expect("updates");
        assert!(!outcome.type_checks());
        assert!(reuse.dirty_symbols > 0);
        assert!(!check_instance(&v2, Some(&cache)).eq(&ItemStatus::TypeChecks));
        // And back: verdict flips back, matching the canonical path.
        let (outcome, _) = engine.update(&v1.transducer).expect("updates");
        assert!(outcome.type_checks());
        assert_eq!(check_instance(&v1, Some(&cache)), ItemStatus::TypeChecks);
    }

    #[test]
    fn memo_cannot_serve_stale_verdict_across_edit() {
        // The memo-staleness regression: check a version (memoized), edit a
        // rule so the verdict flips, and demand the post-edit check misses
        // the memo and reports the flipped verdict.
        let cache = SchemaCache::new();
        let v1 = with_rule("y");
        assert_eq!(check_instance(&v1, Some(&cache)), ItemStatus::TypeChecks);
        let stats = cache.stats();
        assert_eq!(stats.memo_misses, 1);
        // Same content hits the memo.
        assert_eq!(check_instance(&v1, Some(&cache)), ItemStatus::TypeChecks);
        assert_eq!(cache.stats().memo_hits, 1);
        // The edited version must miss (per-component fingerprints diverge
        // in the edited rule) and flip the verdict.
        let v2 = with_rule("y y");
        let status = check_instance(&v2, Some(&cache));
        assert!(
            matches!(status, ItemStatus::CounterExample { .. }),
            "edit must flip the memoized verdict, got {status:?}"
        );
        assert_eq!(cache.stats().memo_misses, 2);
    }

    #[test]
    fn component_fingerprints_isolate_the_edit() {
        use crate::cache::ComponentFingerprints;
        let v1 = with_rule("y");
        let v2 = with_rule("y y");
        let f1 = ComponentFingerprints::of(&v1);
        let f2 = ComponentFingerprints::of(&v2);
        assert_ne!(f1.combined(), f2.combined());
        assert_eq!(f1.input, f2.input);
        assert_eq!(f1.output, f2.output);
        assert_eq!(f1.transducer_header, f2.transducer_header);
        // alphabet + input + output + header + (root, r) rule survive; only
        // the (q, x) rule changed.
        assert_eq!(f1.shared_with(&f2), 4 + 1);
        assert_eq!(f1.combined(), crate::fingerprint_instance(&v1));
    }

    #[test]
    fn edit_fingerprints_reuse_shared_components_and_equal_a_fresh_hash() {
        use crate::cache::ComponentFingerprints;
        use typecheck_core::Schema;
        use xmlta_automata::Regex;
        use xmlta_schema::StringLang;
        let v1 = with_rule("y");
        let f1 = ComponentFingerprints::of(&v1);
        // A rule edit shares every other rule and both schemas with `v1`.
        let mut alphabet = v1.alphabet.clone();
        let transducer = v1
            .transducer
            .with_rule("q", "x", "y y", &mut alphabet)
            .expect("rule parses");
        let v2 = Instance {
            alphabet,
            input: v1.input.clone(),
            output: v1.output.clone(),
            transducer,
        };
        assert_eq!(
            ComponentFingerprints::of_edit(&v1, &f1, &v2),
            ComponentFingerprints::of(&v2)
        );
        // A schema edit unshares that schema's rule table.
        let mut v3 = v2.clone();
        let Schema::Dtd(dout) = &mut v3.output else {
            panic!("a DTD output schema");
        };
        let mut alphabet = v3.alphabet.clone();
        let y = alphabet.intern("y");
        let re = Regex::parse("y*", &mut alphabet).expect("regex parses");
        dout.set_rule(y, StringLang::Regex(re));
        let f2 = ComponentFingerprints::of(&v2);
        let f3 = ComponentFingerprints::of_edit(&v2, &f2, &v3);
        assert_eq!(f3, ComponentFingerprints::of(&v3));
        assert_ne!(f3.output, f2.output);
    }
}
