//! Sound and complete typechecking of simple XML transformations.
//!
//! This crate is the primary contribution of the reproduction: it decides,
//! for an input schema `S_in`, an output schema `S_out`, and a top–down tree
//! transducer `T`, whether `T(t) ∈ S_out` for **every** `t ∈ S_in`
//! (Definition 9 of Martens & Neven), and produces a counterexample when the
//! answer is no (Corollary 38).
//!
//! Three complete engines implement the paper's algorithms:
//!
//! * [`lemma14`] — the workhorse for DTD-based schemas (Theorems 15 and 23):
//!   a behavior-profile reformulation of the Lemma 14 automaton
//!   construction, polynomial for `T^{C,K}_trac` transducers over
//!   `DTD(DFA)`s;
//! * [`delrelab`] — the Theorem 20 pipeline for deleting relabelings
//!   against bottom-up deterministic complete tree automata (Lemma 19
//!   forward image + `#`-elimination + product emptiness);
//! * [`replus`] — the Section 5 grammar algorithm for *arbitrary*
//!   transducers against `DTD(RE+)` schemas (Theorem 37).
//!
//! A brute-force reference engine ([`naive`]) cross-validates all three on
//! small instances, and [`almost_always`] implements Corollary 39.

pub mod almost_always;
pub mod behavior;
pub mod delrelab;
pub mod instance;
pub mod lemma14;
pub mod naive;
pub mod replus;

pub use instance::{Instance, Schema};
pub use lemma14::typecheck_dtds;

use std::borrow::Cow;
use xmlta_transducer::{translate, Transducer};

/// The outcome of a typechecking run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every valid input produces a valid output.
    TypeChecks,
    /// Some valid input produces an invalid output.
    CounterExample(CounterExample),
}

impl Outcome {
    /// Whether the instance typechecks.
    pub fn type_checks(&self) -> bool {
        matches!(self, Outcome::TypeChecks)
    }

    /// The counterexample, if any.
    pub fn counter_example(&self) -> Option<&CounterExample> {
        match self {
            Outcome::TypeChecks => None,
            Outcome::CounterExample(ce) => Some(ce),
        }
    }
}

/// A witness that the instance does not typecheck: a valid input tree whose
/// image violates the output schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// The input tree (`∈ S_in`).
    pub input: xmlta_tree::Tree,
    /// Its image `T(input)`; `None` when the image is not a tree at all
    /// (the empty hedge or a multi-rooted hedge).
    pub output: Option<xmlta_tree::Tree>,
}

/// Errors raised by the typechecking engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypecheckError {
    /// The engine/schema combination is not supported.
    Unsupported(String),
    /// A resource cap was exceeded (profile explosion etc.).
    ResourceLimit(String),
    /// A selector could not be eliminated (non-linear XPath).
    Selector(String),
}

impl std::fmt::Display for TypecheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypecheckError::Unsupported(m) => write!(f, "unsupported instance: {m}"),
            TypecheckError::ResourceLimit(m) => write!(f, "resource limit exceeded: {m}"),
            TypecheckError::Selector(m) => write!(f, "selector translation failed: {m}"),
        }
    }
}

impl std::error::Error for TypecheckError {}

/// Typechecks an instance, dispatching to the appropriate engine
/// ([`typecheck_parts`]).
pub fn typecheck(instance: &Instance) -> Result<Outcome, TypecheckError> {
    typecheck_parts(
        &instance.input,
        &instance.output,
        &instance.transducer,
        instance.alphabet_size(),
    )
}

/// `transducer` with its selectors translated away (Theorems 23 / 29);
/// borrowed as-is when it has none.
pub fn plain_transducer(
    transducer: &Transducer,
    alphabet_size: usize,
) -> Result<Cow<'_, Transducer>, TypecheckError> {
    if !transducer.uses_selectors() {
        return Ok(Cow::Borrowed(transducer));
    }
    translate::expand_selectors_with_alphabet(transducer, alphabet_size)
        .map(Cow::Owned)
        .map_err(|e| TypecheckError::Selector(e.to_string()))
}

/// Typechecks `(input, output, transducer)` over a joint alphabet of
/// `alphabet_size` symbols, dispatching to the appropriate engine:
///
/// 1. transducers with selectors are first translated to plain transducers
///    ([`plain_transducer`]);
/// 2. `DTD(RE+)` schemas on both sides route to the Section 5 engine;
/// 3. other DTD schemas route to the Lemma 14 engine (non-DFA rule
///    representations are determinized first — the exponential worst case
///    this hides is exactly the paper's PSPACE lower bound for `DTD(NFA)`);
/// 4. tree-automata schemas route to the Theorem 20 engine and require a
///    deleting relabeling.
pub fn typecheck_parts(
    input: &Schema,
    output: &Schema,
    transducer: &Transducer,
    alphabet_size: usize,
) -> Result<Outcome, TypecheckError> {
    let transducer = plain_transducer(transducer, alphabet_size)?;
    match (input, output) {
        (Schema::Dtd(din), Schema::Dtd(dout)) => {
            if din.is_replus_dtd() && dout.is_replus_dtd() {
                replus::typecheck_replus(din, dout, &transducer, alphabet_size)
            } else {
                lemma14::typecheck_dtds(din, dout, &transducer, alphabet_size)
            }
        }
        (Schema::Nta(ain), Schema::Nta(aout)) => {
            delrelab::typecheck_delrelab(ain, aout, &transducer, alphabet_size)
        }
        _ => Err(TypecheckError::Unsupported(
            "mixed DTD/tree-automaton schemas: convert the DTD side with \
             xmlta_schema::convert::dtd_to_nta first"
                .into(),
        )),
    }
}
