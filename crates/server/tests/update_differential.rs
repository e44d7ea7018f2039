//! Differential suite for the incremental `update` op: randomized edit
//! scripts where every incrementally computed verdict must be
//! byte-identical to a from-scratch `register` + `typecheck` of the
//! edited instance, at every step, across memo on/off × store on/off.
//!
//! The test keeps a mirror [`Instance`] on the client side and applies
//! the same structured edit the server receives, so the expected
//! successor handle (`handle_for_source` of the printed edit) and the
//! expected verdict (a scratch server's reply) are both derived
//! independently of the incremental path under test.

mod support;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use support::TempPath;
use typecheck_core::Instance;
use xmlta_server::proto::{self, Edit};
use xmlta_server::state::{apply_edit, handle_for_source};
use xmlta_server::{Prepared, Session, Shared};
use xmlta_service::json::Json;
use xmlta_service::{
    encode_instance, fingerprint_instance, gen, parse_instance, parse_json, print_instance,
    ArtifactBackend, ComponentFingerprints,
};
use xmlta_store::Store;

/// The base instance: typechecks, exercises both schema sides, and pins
/// the symbol order with an explicit alphabet section so printed
/// successors stay stable.
const BASE: &str = "\
alphabet { r a b x y z }
input dtd {
  start r
  r -> a b
  a -> x*
  b -> y*
  x -> eps
  y -> eps
  z -> eps
}
output dtd {
  start r
  r -> a b
  a -> x* z*
  b -> y*
  x -> eps
  y -> eps
  z -> eps
}
transducer {
  states root p q
  initial root
  (root, r) -> r(p)
  (p, a) -> a(q)
  (p, b) -> b(q)
  (q, x) -> x
  (q, y) -> y
}
";

const SYMBOLS: &[&str] = &["r", "a", "b", "x", "y", "z"];
const RULE_RHS: &[&str] = &["x", "y", "z", "x x", "x y", "y y", "a(q)", "b(q)", "r(p)"];
const SCHEMA_RHS: &[&str] = &["x*", "y*", "z*", "x* y*", "x* z*", "x y", "(x y)*", "y* z*"];

/// Draws one valid-by-construction edit against the current mirror.
fn random_edit(rng: &mut SmallRng, mirror: &Instance) -> Edit {
    let states = mirror.transducer.state_names();
    let roll = rng.gen_range(0..10u32);
    if roll < 6 {
        Edit::SetRule {
            state: states[rng.gen_range(0..states.len())].clone(),
            symbol: SYMBOLS[rng.gen_range(0..SYMBOLS.len())].to_string(),
            rhs: RULE_RHS[rng.gen_range(0..RULE_RHS.len())].to_string(),
        }
    } else if roll < 8 {
        // Remove a rule that is currently present (falling back to a
        // set_rule when the script has emptied the transducer).
        let present: Vec<(String, String)> = mirror
            .transducer
            .rules()
            .map(|(q, s, _)| {
                (
                    states[q as usize].clone(),
                    mirror.alphabet.name(s).to_string(),
                )
            })
            .collect();
        if present.is_empty() {
            return Edit::SetRule {
                state: states[0].clone(),
                symbol: "r".to_string(),
                rhs: "r(p)".to_string(),
            };
        }
        let (state, symbol) = present[rng.gen_range(0..present.len())].clone();
        Edit::RemoveRule { state, symbol }
    } else {
        Edit::SetSchemaRule {
            output: rng.gen_bool(0.5),
            symbol: SYMBOLS[rng.gen_range(0..SYMBOLS.len())].to_string(),
            rhs: SCHEMA_RHS[rng.gen_range(0..SCHEMA_RHS.len())].to_string(),
        }
    }
}

fn make_shared(memo: bool, store_dir: Option<&Path>) -> Arc<Shared> {
    let memo_cap = if memo {
        xmlta_service::cache::DEFAULT_MEMO_CAPACITY
    } else {
        0
    };
    match store_dir {
        None => Shared::with_capacities(4096, memo_cap),
        Some(dir) => {
            let store = Arc::new(Store::open(dir).expect("store opens"));
            Shared::with_store(4096, memo_cap, Some(store as Arc<dyn ArtifactBackend>))
        }
    }
}

/// Sends one frame and parses the reply.
fn frame(session: &mut Session, line: &str) -> Json {
    let (reply, _) = session.handle_frame(line);
    parse_json(&reply).unwrap_or_else(|e| panic!("reply parses ({e:?}): {reply}"))
}

/// The verdict surface of a reply: every field that encodes the
/// typechecking outcome, in render order.
fn verdict_fields(reply: &Json) -> Vec<(&'static str, Option<Json>)> {
    [
        "status",
        "counterexample",
        "input",
        "output",
        "error",
        "message",
    ]
    .iter()
    .map(|k| (*k, reply.get(k).cloned()))
    .collect()
}

/// Runs one seeded edit script of `steps` edits through a long-lived
/// incremental session, checking every step against a scratch server.
fn run_script(shared: &Arc<Shared>, scratch: &Arc<Shared>, seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut incr = Session::new(Arc::clone(shared));
    let mut from_scratch = Session::new(Arc::clone(scratch));
    frame(&mut incr, r#"{"id": 0, "op": "hello", "max_v": 2}"#);

    let registered = frame(&mut incr, &proto::req_register(1, BASE));
    let mut handle = registered
        .get("handle")
        .and_then(|j| j.as_str())
        .expect("base registers")
        .to_string();
    let mut mirror = parse_instance(BASE).expect("base parses");

    for step in 0..steps {
        let edit = random_edit(&mut rng, &mirror);
        let id = 100 + step as u64;

        // Independent expectations from the mirror: the printed edit's
        // canonical source, handle, and a scratch server's verdict.
        let edited = apply_edit(&mirror, &edit)
            .unwrap_or_else(|e| panic!("seed {seed} step {step}: edit {edit:?} applies: {e}"));
        let printed = print_instance(&edited).expect("edited instance prints");
        let expected_handle = handle_for_source(&printed);
        let scratch_reg = frame(&mut from_scratch, &proto::req_register(id, &printed));
        assert_eq!(
            scratch_reg.get("handle").and_then(|j| j.as_str()),
            Some(expected_handle.as_str()),
            "seed {seed} step {step}: scratch register agrees on the handle"
        );
        let expected = frame(
            &mut from_scratch,
            &proto::req_typecheck_handle(id, &expected_handle),
        );
        assert_eq!(
            expected.get("ok"),
            Some(&Json::Bool(true)),
            "seed {seed} step {step}: scratch typecheck succeeds: {expected:?}"
        );

        // The incremental arm: one `update` frame against the live handle.
        let update = frame(&mut incr, &proto::req_update(id, &handle, &edit));
        assert_eq!(
            update.get("ok"),
            Some(&Json::Bool(true)),
            "seed {seed} step {step}: update succeeds for {edit:?}: {update:?}"
        );
        assert_eq!(
            update.get("handle").and_then(|j| j.as_str()),
            Some(expected_handle.as_str()),
            "seed {seed} step {step}: successor handle is content-derived"
        );
        assert_eq!(
            verdict_fields(&update),
            verdict_fields(&expected),
            "seed {seed} step {step}: incremental verdict differs from scratch for {edit:?}"
        );
        let reused = update
            .get("components_reused")
            .and_then(|j| j.as_u64())
            .expect("update reports components_reused");
        assert!(
            reused > 0,
            "seed {seed} step {step}: a single-component edit must reuse components"
        );

        mirror = parse_instance(&printed).expect("printed successor parses");
        handle = expected_handle;
    }
}

#[test]
fn incremental_updates_match_from_scratch_across_configs() {
    let configs: &[(&str, bool, bool)] = &[
        ("memo-store", true, true),
        ("memo-nostore", true, false),
        ("nomemo-store", false, true),
        ("nomemo-nostore", false, false),
    ];
    for &(name, memo, store) in configs {
        let incr_dir = TempPath::new(&format!("update-diff-{name}-incr"));
        let scratch_dir = TempPath::new(&format!("update-diff-{name}-scratch"));
        let shared = make_shared(memo, store.then_some(&*incr_dir));
        let scratch = make_shared(memo, store.then_some(&*scratch_dir));
        for seed in [0xA5, 0x5A, 7] {
            run_script(&shared, &scratch, seed, 24);
        }
    }
}

/// A focused script that forces verdict flips in both directions and
/// checks the session-level counters afterwards: the memoized verdict
/// must never leak across an edit, and every update must report reuse.
#[test]
fn update_flips_are_served_incrementally_with_reuse() {
    let shared = Shared::new();
    let mut session = Session::new(Arc::clone(&shared));
    frame(&mut session, r#"{"id": 0, "op": "hello", "max_v": 2}"#);
    let reply = frame(&mut session, &proto::req_register(1, BASE));
    let h0 = reply
        .get("handle")
        .and_then(|j| j.as_str())
        .unwrap()
        .to_string();

    // Break it: `q` on `x` now emits `y`, which `a -> x* z*` rejects.
    let breaking = Edit::SetRule {
        state: "q".to_string(),
        symbol: "x".to_string(),
        rhs: "y".to_string(),
    };
    let broken = frame(&mut session, &proto::req_update(2, &h0, &breaking));
    assert_eq!(
        broken.get("status").and_then(|j| j.as_str()),
        Some("counterexample"),
        "emitting y under a flips the verdict: {broken:?}"
    );
    let h1 = broken
        .get("handle")
        .and_then(|j| j.as_str())
        .unwrap()
        .to_string();

    // Fix it again: back to the identity rule.
    let fixing = Edit::SetRule {
        state: "q".to_string(),
        symbol: "x".to_string(),
        rhs: "x".to_string(),
    };
    let fixed = frame(&mut session, &proto::req_update(3, &h1, &fixing));
    assert_eq!(
        fixed.get("status").and_then(|j| j.as_str()),
        Some("typechecks"),
        "restoring the rule restores the verdict: {fixed:?}"
    );

    let stats = frame(&mut session, r#"{"id": 4, "op": "stats"}"#);
    let stats = stats.get("stats").expect("has stats");
    assert_eq!(stats.get("update_reqs").and_then(|j| j.as_u64()), Some(2));
    assert!(
        stats
            .get("components_reused")
            .and_then(|j| j.as_u64())
            .unwrap()
            >= 2,
        "both updates reuse components"
    );
}

/// The memo-key contract of [`Prepared`]: the key and component
/// fingerprints it carries from registration are exactly what hashing its
/// instance afresh yields.
fn assert_carries_honest_keys(prepared: &Prepared, what: &str) {
    assert_eq!(
        prepared.key(),
        fingerprint_instance(&prepared.instance),
        "{what}: carried memo key"
    );
    assert_eq!(
        *prepared.fingerprints(),
        ComponentFingerprints::of(&prepared.instance),
        "{what}: carried component fingerprints"
    );
}

/// Every registration path carries honest keys: `register` and
/// `register_bin` over the generator's families, and every successor an
/// `update` registers along a randomized edit script.
#[test]
fn registered_instances_carry_honest_memo_keys() {
    let shared = Shared::new();
    for (name, source) in gen::mixed_sources(24, 4, 11).expect("generators print") {
        let text = shared.register(&source).expect("generated sources parse");
        assert_carries_honest_keys(&text, &format!("register {name}"));
        let bytes = encode_instance(&text.instance).expect("encodes");
        let binary = shared.register_binary(&bytes).expect("decodes");
        assert_carries_honest_keys(&binary, &format!("register_bin {name}"));
        assert_eq!(
            binary.key(),
            text.key(),
            "{name}: text and binary twins share a key"
        );
    }

    for seed in [0xA5, 0x5A, 7] {
        let mut session = Session::new(Arc::clone(&shared));
        frame(&mut session, r#"{"id": 0, "op": "hello", "max_v": 2}"#);
        let registered = frame(&mut session, &proto::req_register(1, BASE));
        let mut handle = registered
            .get("handle")
            .and_then(|j| j.as_str())
            .expect("base registers")
            .to_string();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mirror = parse_instance(BASE).expect("base parses");
        for step in 0..24 {
            let edit = random_edit(&mut rng, &mirror);
            let update = frame(&mut session, &proto::req_update(100 + step, &handle, &edit));
            handle = update
                .get("handle")
                .and_then(|j| j.as_str())
                .unwrap_or_else(|| panic!("seed {seed} step {step}: update succeeds: {update:?}"))
                .to_string();
            // Registering the printed successor dedups onto the very
            // artifact the update registered.
            let printed = print_instance(&apply_edit(&mirror, &edit).expect("edit applies"))
                .expect("edited instance prints");
            let successor = shared.register(&printed).expect("printed successor parses");
            assert_eq!(successor.handle, handle);
            assert_carries_honest_keys(&successor, &format!("seed {seed} step {step} update"));
            mirror = parse_instance(&printed).expect("printed successor parses");
        }
    }
}

/// The successor an `update` adopts is exactly what a `register` of its
/// printed source would parse: structurally equal to the re-parse, filed
/// under the re-parse's memo key and the printed source's handle.
fn assert_adopted_equals_reparse(shared: &Shared, printed: &str, handle: &str, what: &str) {
    let adopted = shared
        .register(printed)
        .expect("the printed successor is registered");
    let reparsed = parse_instance(printed).expect("the printed successor parses");
    assert_eq!(adopted.handle, handle, "{what}: served handle");
    assert_eq!(adopted.handle, handle_for_source(printed), "{what}: handle");
    assert!(
        *adopted.instance == reparsed,
        "{what}: adopted successor differs from its re-parse"
    );
    assert_eq!(
        adopted.key(),
        fingerprint_instance(&reparsed),
        "{what}: carried key"
    );
}

/// Sends `edit` against `handle` and returns the reply, the successor's
/// printed source, and the edited mirror.
fn update_step(
    session: &mut Session,
    id: u64,
    handle: &str,
    mirror: &Instance,
    edit: &Edit,
) -> (Json, String, Instance) {
    let printed = print_instance(&apply_edit(mirror, edit).expect("edit applies"))
        .expect("edited instance prints");
    let reply = frame(session, &proto::req_update(id, handle, edit));
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{edit:?}: {reply:?}"
    );
    let mirror = parse_instance(&printed).expect("printed successor parses");
    (reply, printed, mirror)
}

#[test]
fn adopted_successors_equal_their_reparse() {
    // Edits that intern symbols the alphabet does not have yet, on every
    // component: the successor's schemas and transducer must grow with it.
    let fresh = |step: u64| match step % 3 {
        0 => Edit::SetRule {
            state: "q".to_string(),
            symbol: "x".to_string(),
            rhs: format!("w{step}"),
        },
        1 => Edit::SetSchemaRule {
            output: false,
            symbol: format!("v{step}"),
            rhs: "x*".to_string(),
        },
        _ => Edit::SetSchemaRule {
            output: true,
            symbol: "a".to_string(),
            rhs: format!("x* u{step}*"),
        },
    };
    let shared = Shared::new();
    for seed in [0xA5, 0x5A, 7, 11] {
        let mut session = Session::new(Arc::clone(&shared));
        frame(&mut session, r#"{"id": 0, "op": "hello", "max_v": 2}"#);
        let registered = frame(&mut session, &proto::req_register(1, BASE));
        let mut handle = registered
            .get("handle")
            .and_then(|j| j.as_str())
            .expect("base registers")
            .to_string();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mirror = parse_instance(BASE).expect("base parses");
        for step in 0..32 {
            let edit = if step % 8 == 5 {
                fresh(seed + step)
            } else {
                random_edit(&mut rng, &mirror)
            };
            let (reply, printed, next) =
                update_step(&mut session, 100 + step, &handle, &mirror, &edit);
            handle = reply
                .get("handle")
                .and_then(|j| j.as_str())
                .expect("update replies with a handle")
                .to_string();
            let what = format!("seed {seed} step {step} {edit:?}");
            assert_adopted_equals_reparse(&shared, &printed, &handle, &what);
            mirror = next;
        }
    }

    for (what, base, edits) in [
        ("selectors", SELECTOR_BASE, selector_edits()),
        ("automata", AUTOMATA_BASE, automata_edits()),
        ("nta", NTA_BASE, nta_edits()),
    ] {
        run_chain(&shared, what, base, &edits);
    }
}

fn set_rule(state: &str, symbol: &str, rhs: &str) -> Edit {
    Edit::SetRule {
        state: state.to_string(),
        symbol: symbol.to_string(),
        rhs: rhs.to_string(),
    }
}

/// Sends `edits` as one chain from `base`: every successor must equal its
/// re-parse (see [`assert_adopted_equals_reparse`]), and every verdict
/// must be byte-identical to a scratch server's for the printed source.
fn run_chain(shared: &Arc<Shared>, what: &str, base: &str, edits: &[Edit]) {
    let mut session = Session::new(Arc::clone(shared));
    frame(&mut session, r#"{"id": 0, "op": "hello", "max_v": 2}"#);
    let registered = frame(&mut session, &proto::req_register(1, base));
    let mut handle = registered
        .get("handle")
        .and_then(|j| j.as_str())
        .unwrap_or_else(|| panic!("{what}: the base registers: {registered:?}"))
        .to_string();
    let mut mirror = parse_instance(base).expect("the base parses");
    for (step, edit) in edits.iter().enumerate() {
        let id = 200 + step as u64;
        let (reply, printed, next) = update_step(&mut session, id, &handle, &mirror, edit);
        handle = reply
            .get("handle")
            .and_then(|j| j.as_str())
            .expect("update replies with a handle")
            .to_string();
        let what = format!("{what} step {step} {edit:?}");
        assert_adopted_equals_reparse(shared, &printed, &handle, &what);
        let mut scratch = Session::new(Shared::new());
        let scratch_handle = frame(&mut scratch, &proto::req_register(id, &printed));
        let scratch_handle = scratch_handle
            .get("handle")
            .and_then(|j| j.as_str())
            .expect("scratch registers the print");
        let expected = frame(
            &mut scratch,
            &proto::req_typecheck_handle(id, scratch_handle),
        );
        assert_eq!(
            verdict_fields(&reply),
            verdict_fields(&expected),
            "{what}: verdict differs from scratch"
        );
        mirror = next;
    }
}

/// XPath selectors print inline at their use sites, so the parse numbers
/// them in printed rule order and keeps only those some rule uses.
const SELECTOR_BASE: &str = "\
alphabet { r a b x y z }
input dtd {
  start r
  r -> a b
  a -> x*
  b -> y*
}
output dtd {
  start r
  r -> a b
  a -> x* z*
  b -> y*
}
transducer {
  states root p q
  initial root
  (root, r) -> r(<p, ./a> <p, ./b>)
  (p, a) -> a(<q, .//x>)
  (p, b) -> b(q)
  (q, x) -> x
  (q, y) -> y
}
";

fn selector_edits() -> Vec<Edit> {
    vec![
        // A selector in a rule printed before the last one in the table.
        set_rule("p", "b", "b(<q, .//y>)"),
        // A selector that does not compile replaces `.//x`...
        set_rule("p", "a", "a(<q, ./a[./b]>)"),
        // ...and is dropped again: it must not outlive its rule.
        set_rule("p", "a", "a(q)"),
        Edit::RemoveRule {
            state: "p".to_string(),
            symbol: "b".to_string(),
        },
        set_rule("root", "r", "r(<p, .//a> <p, ./b>)"),
        set_rule("p", "b", "b(<q, ./y> <q, ./x>)"),
        set_rule("root", "r", "r(p)"),
    ]
}

/// No alphabet section: each automaton is sized by the symbols seen when
/// it was parsed, the `@dfa`/`@nfa` rules and the DFA selector alike,
/// while the print declares the whole alphabet first. The NFA's edges are
/// out of the printer's order.
const AUTOMATA_BASE: &str = "\
input dtd {
  start r
  r -> @dfa {
    states 2
    final 1
    0 a 1
    1 a 1
  }
  a -> @nfa {
    states 2
    initial 0
    final 0 1
    1 x 1
    0 x 1
    0 x 0
  }
}
output dtd {
  start r
  r -> a*
  a -> x* y*
}
transducer {
  states root p
  initial root
  selector $d = @dfa {
    states 2
    final 1
    0 a 1
  }
  (root, r) -> r(<p, $d>)
  (p, a) -> a(p)
  (p, x) -> x
}
";

fn automata_edits() -> Vec<Edit> {
    vec![
        set_rule("p", "x", "x x"),
        // Fresh symbols on every component.
        set_rule("p", "x", "w1"),
        Edit::SetSchemaRule {
            output: true,
            symbol: "a".to_string(),
            rhs: "x* u2*".to_string(),
        },
        Edit::SetSchemaRule {
            output: false,
            symbol: "v3".to_string(),
            rhs: "x*".to_string(),
        },
        set_rule("p", "x", "x"),
    ]
}

/// NTA transition languages print by state elimination, which keeps their
/// languages but not their automata.
const NTA_BASE: &str = "\
input nta {
  states q0 q1
  final q0
  (q0, r) -> q1*
  (q1, x) -> eps
}
output nta {
  states p0 p1
  final p0
  (p0, r) -> p1* p1*
  (p1, x) -> eps
}
transducer {
  states a
  initial a
  (a, r) -> r(a)
  (a, x) -> x
}
";

fn nta_edits() -> Vec<Edit> {
    ["x x", "x", "w", "x x x"]
        .iter()
        .map(|rhs| set_rule("a", "x", rhs))
        .collect()
}

/// The sectioned instance of the edit-stream benchmark, in small: `r ->
/// s0 .. s{n-1}`, section `sj` holding `xj*` on both schema sides, and one
/// state per section whose rule `(qj, xj)` emits `copies[j]` copies of
/// `xj`.
fn sectioned_source(copies: &[usize]) -> String {
    use std::fmt::Write as _;
    let n = copies.len();
    let mut src = String::from("alphabet { r");
    for j in 0..n {
        let _ = write!(src, " s{j} x{j}");
    }
    src.push_str(" }\n");
    for side in ["input", "output"] {
        let _ = write!(src, "{side} dtd {{\n  start r\n  r ->");
        for j in 0..n {
            let _ = write!(src, " s{j}");
        }
        src.push('\n');
        for j in 0..n {
            let _ = writeln!(src, "  s{j} -> x{j}*\n  x{j} -> eps");
        }
        src.push_str("}\n");
    }
    src.push_str("transducer {\n  states root p");
    for j in 0..n {
        let _ = write!(src, " q{j}");
    }
    src.push_str("\n  initial root\n  (root, r) -> r(p)\n");
    for (j, &c) in copies.iter().enumerate() {
        let _ = writeln!(src, "  (p, s{j}) -> s{j}(q{j})");
        let _ = writeln!(
            src,
            "  (q{j}, x{j}) -> {}",
            vec![format!("x{j}"); c].join(" ")
        );
    }
    src.push_str("}\n");
    src
}

/// A 64-section chain where every eighth edit breaks its section (the
/// section emits its neighbour's symbol) and the next repairs it: every
/// successor equals its re-parse, and every verdict — failing ones
/// included — is byte-identical to a scratch server's.
#[test]
fn sectioned_chain_with_failing_edits_matches_scratch() {
    const SECTIONS: usize = 64;
    let shared = Shared::new();
    let scratch = Shared::new();
    let mut incr = Session::new(Arc::clone(&shared));
    let mut from_scratch = Session::new(Arc::clone(&scratch));
    frame(&mut incr, r#"{"id": 0, "op": "hello", "max_v": 2}"#);
    let mut copies = vec![1usize; SECTIONS];
    let base = sectioned_source(&copies);
    let registered = frame(&mut incr, &proto::req_register(1, &base));
    let mut handle = registered
        .get("handle")
        .and_then(|j| j.as_str())
        .expect("base registers")
        .to_string();
    let mut mirror = parse_instance(&base).expect("base parses");
    let mut rng = SmallRng::seed_from_u64(0xED17);
    let mut broken: Option<usize> = None;
    let mut failures = 0;
    for step in 0..48u64 {
        let (j, fail) = match broken.take() {
            Some(j) => (j, false),
            None => {
                let j = rng.gen_range(0..SECTIONS);
                let fail = step % 8 == 7;
                if fail {
                    broken = Some(j);
                }
                (j, fail)
            }
        };
        copies[j] += 1;
        let mut rhs = vec![format!("x{j}"); copies[j]].join(" ");
        if fail {
            rhs.push_str(&format!(" x{}", (j + 1) % SECTIONS));
        }
        let edit = Edit::SetRule {
            state: format!("q{j}"),
            symbol: format!("x{j}"),
            rhs,
        };
        let id = 100 + step;
        let (reply, printed, next) = update_step(&mut incr, id, &handle, &mirror, &edit);
        handle = reply
            .get("handle")
            .and_then(|j| j.as_str())
            .expect("update replies with a handle")
            .to_string();
        assert_adopted_equals_reparse(&shared, &printed, &handle, &format!("step {step}"));
        frame(&mut from_scratch, &proto::req_register(id, &printed));
        let expected = frame(&mut from_scratch, &proto::req_typecheck_handle(id, &handle));
        assert_eq!(
            verdict_fields(&reply),
            verdict_fields(&expected),
            "step {step}: chained verdict differs from scratch"
        );
        let status = reply.get("status").and_then(|j| j.as_str());
        assert_eq!(
            status == Some("typechecks"),
            !fail,
            "step {step}: {reply:?}"
        );
        failures += usize::from(fail);
        // The follow-up typecheck of the successor serves the same bytes.
        let again = frame(&mut incr, &proto::req_typecheck_handle(id, &handle));
        assert_eq!(
            verdict_fields(&again),
            verdict_fields(&expected),
            "step {step}"
        );
        mirror = next;
    }
    assert_eq!(failures, 6);
}
