//! Known-answer checks. Every served verdict is compared to the
//! generator's answer, and every served counterexample is certified here,
//! outside the daemon: the witness must parse over the instance's
//! alphabet, be accepted by the input schema, and map — by this process's
//! own `Transducer::apply` — to the served output, which the output schema
//! must reject.

use typecheck_core::{Instance, Schema};
use xmlta_service::Json;
use xmlta_tree::{parse_tree, Tree};

/// Certifies one served counterexample against `instance`.
pub fn certify(instance: &Instance, input: &str, output: Option<&str>) -> Result<(), String> {
    let mut alphabet = instance.alphabet.clone();
    let tree =
        parse_tree(input, &mut alphabet).map_err(|e| format!("witness does not parse: {e}"))?;
    if alphabet.len() != instance.alphabet.len() {
        return Err("witness uses symbols outside the instance alphabet".into());
    }
    if !accepts(&instance.input, &tree) {
        return Err(format!("witness `{input}` is not valid input"));
    }
    let image = instance.transducer.apply(&tree);
    let rendered = image
        .as_ref()
        .map(|t| t.display(&instance.alphabet).to_string());
    if rendered.as_deref() != output {
        return Err(format!(
            "served output {output:?} is not T(witness) = {rendered:?}"
        ));
    }
    match image {
        Some(t) if accepts(&instance.output, &t) => Err(format!(
            "T(witness) = `{}` is valid output",
            rendered.unwrap_or_default()
        )),
        _ => Ok(()),
    }
}

fn accepts(schema: &Schema, t: &Tree) -> bool {
    match schema {
        Schema::Dtd(d) => d.accepts(t),
        Schema::Nta(n) => n.accepts(t),
    }
}

/// A verdict as served in a `typecheck`/`update` reply or a batch record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    TypeChecks,
    CounterExample {
        input: String,
        output: Option<String>,
    },
}

/// Reads the verdict fields of a reply or batch record; `Err` for error
/// statuses and malformed records.
pub fn verdict_of(obj: &Json) -> Result<Verdict, String> {
    match obj.get("status").and_then(Json::as_str) {
        Some("typechecks") => Ok(Verdict::TypeChecks),
        Some("counterexample") => {
            let input = obj
                .get("input")
                .and_then(Json::as_str)
                .ok_or("counterexample without an input witness")?
                .to_string();
            let output = match obj.get("output") {
                Some(Json::Null) => None,
                Some(o) => Some(o.as_str().ok_or("non-string output witness")?.to_string()),
                None => return Err("counterexample without an output field".into()),
            };
            Ok(Verdict::CounterExample { input, output })
        }
        Some("error") => Err(format!(
            "error status: {}",
            obj.get("message").and_then(Json::as_str).unwrap_or("?")
        )),
        other => Err(format!("unknown status {other:?}")),
    }
}

/// Checks a verdict against the known answer, certifying counterexamples.
pub fn check_verdict(
    instance: &Instance,
    expect_typechecks: bool,
    got: &Verdict,
) -> Result<(), String> {
    match (expect_typechecks, got) {
        (true, Verdict::TypeChecks) => Ok(()),
        (false, Verdict::CounterExample { input, output }) => {
            certify(instance, input, output.as_deref())
        }
        (true, _) => Err("expected typechecks, got a counterexample".into()),
        (false, _) => Err("expected a counterexample, got typechecks".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, EditScript, Family, FAMILIES, SECTIONS};
    use std::sync::Arc;
    use typecheck_core::naive::{typecheck_naive, Bounds};
    use typecheck_core::Outcome;
    use xmlta_service::{check_instance, parse_instance, ItemStatus};
    use xmlta_transducer::translate::expand_selectors_with_alphabet;

    /// The brute-force oracle on a DTD instance (selectors expanded
    /// first). `None` for tree-automaton schemas, which it cannot read.
    fn naive(instance: &Instance) -> Option<Outcome> {
        let (Schema::Dtd(din), Schema::Dtd(dout)) = (&instance.input, &instance.output) else {
            return None;
        };
        let t = if instance.transducer.uses_selectors() {
            expand_selectors_with_alphabet(&instance.transducer, instance.alphabet_size())
                .expect("selectors expand")
        } else {
            instance.transducer.clone()
        };
        Some(typecheck_naive(din, dout, &t, Bounds::default()))
    }

    fn served(instance: &Arc<Instance>) -> Verdict {
        match check_instance(instance, None) {
            ItemStatus::TypeChecks => Verdict::TypeChecks,
            ItemStatus::CounterExample { input, output } => {
                Verdict::CounterExample { input, output }
            }
            ItemStatus::Error { message } => panic!("engine error: {message}"),
        }
    }

    #[test]
    fn known_answers_agree_with_the_naive_oracle_on_small_members() {
        // The tree-automaton family (nta-delrelab) has no DTD form the
        // oracle can enumerate; its answer is checked against the engine
        // below with every other family.
        for family in FAMILIES {
            let (lo, _) = family.params();
            for p in lo..lo + 2 {
                let w = family.workload(p);
                if let Some(outcome) = naive(&w.instance) {
                    assert_eq!(
                        outcome.type_checks(),
                        w.expect_typechecks,
                        "{} p={p}: oracle disagrees with the known answer",
                        family.name()
                    );
                }
                let instance = Arc::new(w.instance);
                check_verdict(&instance, w.expect_typechecks, &served(&instance))
                    .unwrap_or_else(|e| panic!("{} p={p}: {e}", family.name()));
            }
        }
        for source in inputs::handle_sources(1).iter().take(4) {
            let small = parse_instance(source).expect("parses");
            assert!(naive(&small).expect("DTD instance").type_checks());
        }
    }

    #[test]
    fn cold_items_keep_their_answers_under_the_tag() {
        let t = inputs::cold_template(3);
        for item in &t.items {
            check_verdict(
                &item.instance,
                item.expect_typechecks,
                &served(&item.instance),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", item.name));
        }
        assert!(t.items.iter().any(|i| !i.expect_typechecks));
    }

    #[test]
    fn edit_answers_agree_with_the_naive_oracle() {
        // A 3-section instance keeps the oracle's enumeration exhaustive
        // over the sections' shapes.
        let mut script = EditScript::new(4, 3);
        for _ in 0..16 {
            let step = script.next_step();
            let instance = parse_instance(&script.current_source()).expect("parses");
            assert_eq!(
                naive(&instance).expect("DTD instance").type_checks(),
                step.expect_typechecks
            );
        }
        let full = Arc::new(parse_instance(&EditScript::base_source(4, SECTIONS)).unwrap());
        assert_eq!(served(&full), Verdict::TypeChecks);
    }

    #[test]
    fn forged_counterexamples_fail_certification() {
        let w = workloads_failing();
        let Verdict::CounterExample { input, output } = served(&w) else {
            panic!("failing family must fail");
        };
        certify(&w, &input, output.as_deref()).expect("served witness certifies");
        assert!(certify(&w, &input, Some("book")).is_err(), "wrong image");
        let good = inputs::Family::Filtering.workload(2).instance;
        assert!(
            certify(&good, &input, output.as_deref()).is_err(),
            "valid output"
        );
        assert!(certify(&w, "nosuch", None).is_err(), "foreign symbol");
    }

    fn workloads_failing() -> Arc<Instance> {
        Arc::new(Family::FailingFiltering.workload(2).instance)
    }
}
