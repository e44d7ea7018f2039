//! The `.xta` compiled-artifact format: one cache product per file.
//!
//! The persistent store (`crates/store`) serializes the three product
//! kinds the in-memory [`crate::SchemaCache`] interns — compiled DTD
//! schemas, baked rule DFAs, and Theorem 20 delrelab `B_out` products —
//! so a fresh process can adopt them instead of recompiling. The format
//! follows `binfmt`'s discipline (magic + version byte, LEB128 varints,
//! canonical sorted encoding, a total range-checked borrowing decoder
//! that never panics) and adds one thing `.xtb` does not need: a 64-bit
//! FNV-1a checksum over the payload.
//!
//! The checksum matters because artifact integrity cannot be re-derived
//! from the *source* half alone. Every load is verified structurally
//! against the query (like an in-memory hit), but that only covers the
//! source; a bit flip in the *compiled* half could still decode to a
//! well-formed, different automaton and silently change verdicts. The
//! FNV-1a byte step is a bijection on `u64`, so any single corrupted
//! byte under the checksum is detected deterministically — and every
//! header byte is load-bearing too (magic and version are checked
//! first, the kind byte is folded into the checksum, the checksum bytes
//! check themselves), so *every* single-byte corruption of an artifact
//! is rejected, never adopted.
//!
//! Layout:
//!
//! ```text
//! "xta" | version (1) | kind (1) | fnv1a64(kind ‖ payload) LE (8) | payload
//! ```
//!
//! Payloads (all varints; collections length-prefixed, sorted):
//!
//! - **Schema** (kind 1): `sigma`, `start`, rule count, then per rule in
//!   strictly increasing symbol order: `sym`, source [`StringLang`],
//!   compiled [`Dfa`]. Source and compiled share symbols/start/sigma by
//!   construction, so the compiled DTD is encoded as bare DFAs riding
//!   the source rules.
//! - **Rule** (kind 2): `sigma`, source [`StringLang`], compiled [`Dfa`].
//! - **Bout** (kind 3): joint `sigma`, source NTA body, product NTA body
//!   (each: own alphabet size, state count, finals, transitions — the
//!   `.xtb` NTA schema encoding without the symbol-table bound).
//!
//! Decoding is total: corrupt, truncated, stale-versioned, or forged
//! bytes produce a structured [`BinError`]; the cache counts the entry
//! as `store_corrupt` and falls back to recompilation.

use crate::binfmt::{
    get_dfa, get_lang, get_nfa, in_range, put_dfa, put_lang, put_nfa, put_usize, put_varint,
    BinError, Reader, MAX_STATES,
};
use std::sync::Arc;
use xmlta_automata::Dfa;
use xmlta_base::Symbol;
use xmlta_schema::{Dtd, Nta, StringLang};

/// Magic prefix of every `.xta` artifact.
pub const MAGIC: &[u8] = b"xta";

/// Current artifact format version. Bumped whenever the cache keys an
/// artifact is filed under change, even with the byte layout unchanged:
/// version 2 keys are [`crate::cache::fingerprint`]s of the types' `Hash`,
/// so a version 1 entry reads as stale-versioned instead of misfiled.
pub const VERSION: u8 = 2;

/// Cap on a declared alphabet size. Artifacts carry no symbol table, so
/// unlike `.xtb` there is no byte-budget bound tying sigma to the input
/// length; this keeps a forged header from provoking a huge allocation.
pub const MAX_SIGMA: usize = 1 << 20;

/// Header length: magic + version + kind + checksum.
const HEADER_LEN: usize = 3 + 1 + 1 + 8;

/// Which cache product an artifact holds (the wire kind byte and the
/// store's directory layout both key on this).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArtifactKind {
    /// A compiled DTD schema: source rules + baked DFA rule table.
    Schema = 1,
    /// One compiled rule: source language + its DFA.
    Rule = 2,
    /// A delrelab `B_out` product: output NTA + product NTA.
    Bout = 3,
}

impl ArtifactKind {
    /// The store subdirectory this kind lives in.
    pub fn dir(self) -> &'static str {
        match self {
            ArtifactKind::Schema => "schema",
            ArtifactKind::Rule => "rule",
            ArtifactKind::Bout => "bout",
        }
    }

    /// All kinds, in wire order.
    pub fn all() -> [ArtifactKind; 3] {
        [ArtifactKind::Schema, ArtifactKind::Rule, ArtifactKind::Bout]
    }

    fn from_byte(b: u8) -> Option<ArtifactKind> {
        match b {
            1 => Some(ArtifactKind::Schema),
            2 => Some(ArtifactKind::Rule),
            3 => Some(ArtifactKind::Bout),
            _ => None,
        }
    }
}

/// A decoded artifact: the source the cache keys on plus the compiled
/// product it would otherwise rebuild.
#[derive(Debug)]
pub enum Artifact {
    /// Kind 1: a source DTD and its compiled (all-DFA-rules) twin.
    Schema { source: Dtd, compiled: Dtd },
    /// Kind 2: a source rule language and its baked DFA at `sigma`.
    Rule {
        sigma: usize,
        source: StringLang,
        compiled: Dfa,
    },
    /// Kind 3: an output NTA and its `B_out` product at joint `sigma`.
    Bout {
        sigma: usize,
        source: Nta,
        product: Nta,
    },
}

/// One FNV-1a byte step: `xor` then multiply by the odd FNV prime. Both
/// halves are bijections on `u64`, so two inputs differing in exactly
/// one byte can never collide.
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| fnv_step(h, b))
}

/// The artifact checksum: FNV-1a over the kind byte followed by the
/// payload, so a flipped kind byte that still names a valid kind cannot
/// smuggle one kind's payload through another kind's decoder.
fn checksum(kind: u8, payload: &[u8]) -> u64 {
    payload
        .iter()
        .fold(fnv_step(0xcbf2_9ce4_8422_2325, kind), |h, &b| {
            fnv_step(h, b)
        })
}

/// Whether `bytes` starts like an `.xta` artifact (any version).
pub fn is_xta(bytes: &[u8]) -> bool {
    bytes.starts_with(MAGIC)
}

fn frame(kind: ArtifactKind, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&checksum(kind as u8, &payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Encodes a compiled-schema artifact. `compiled` must be the all-DFA
/// compilation of `source` (same start, sigma, and rule symbols); a
/// non-DFA compiled rule is an internal invariant violation reported as
/// an error rather than a panic.
pub fn encode_schema(source: &Dtd, compiled: &Dtd) -> Result<Vec<u8>, BinError> {
    let sigma = source.alphabet_size();
    let mut payload = Vec::new();
    put_usize(&mut payload, sigma);
    put_varint(&mut payload, u64::from(source.start().0));
    let rules = source.sorted_rules();
    put_usize(&mut payload, rules.len());
    for (sym, lang) in rules {
        let Some(StringLang::Dfa(dfa)) = compiled.rule(sym) else {
            return Err(BinError::new(0, "compiled dtd rule is not a baked dfa"));
        };
        put_varint(&mut payload, u64::from(sym.0));
        put_lang(&mut payload, lang);
        put_dfa(&mut payload, dfa);
    }
    Ok(frame(ArtifactKind::Schema, payload))
}

/// Encodes a compiled-rule artifact (`compile_rule`'s product).
pub fn encode_rule(sigma: usize, source: &StringLang, compiled: &Dfa) -> Vec<u8> {
    let mut payload = Vec::new();
    put_usize(&mut payload, sigma);
    put_lang(&mut payload, source);
    put_dfa(&mut payload, compiled);
    frame(ArtifactKind::Rule, payload)
}

/// Encodes a delrelab `B_out` artifact (`delrelab_bout`'s product).
pub fn encode_bout(sigma: usize, source: &Nta, product: &Nta) -> Vec<u8> {
    let mut payload = Vec::new();
    put_usize(&mut payload, sigma);
    put_nta_body(&mut payload, source);
    put_nta_body(&mut payload, product);
    frame(ArtifactKind::Bout, payload)
}

fn put_nta_body(out: &mut Vec<u8>, n: &Nta) {
    put_usize(out, n.alphabet_size());
    put_usize(out, n.num_states());
    let finals: Vec<u32> = n.final_states().collect();
    put_usize(out, finals.len());
    for q in finals {
        put_varint(out, u64::from(q));
    }
    let trans = n.sorted_transitions();
    put_usize(out, trans.len());
    for (q, sym, nfa) in trans {
        put_varint(out, u64::from(q));
        put_varint(out, u64::from(sym.0));
        put_nfa(out, nfa);
    }
}

/// Reads a declared alphabet size. Artifacts have no symbol table to
/// bound it against, so this is a plain varint capped by [`MAX_SIGMA`].
fn get_sigma(r: &mut Reader<'_>, what: &str) -> Result<usize, BinError> {
    let sigma = r.varint(what)? as usize;
    if sigma > MAX_SIGMA {
        return Err(r.err(format!("{what} {sigma} exceeds the cap {MAX_SIGMA}")));
    }
    Ok(sigma)
}

fn get_nta_body(r: &mut Reader<'_>, what: &str) -> Result<Nta, BinError> {
    let sigma = get_sigma(r, &format!("{what} alphabet size"))?;
    let num_states = r.varint(&format!("{what} state count"))? as usize;
    if num_states > MAX_STATES {
        return Err(r.err(format!(
            "{what} claims {num_states} states (cap {MAX_STATES})"
        )));
    }
    let mut nta = Nta::new(sigma);
    nta.add_states(num_states);
    let nfinals = r.count(&format!("{what} final count"))?;
    for _ in 0..nfinals {
        let q = r.id(&format!("{what} final state"))?;
        in_range(r, q, num_states, "nta final state")?;
        nta.set_final(q);
    }
    let ntrans = r.count(&format!("{what} transition count"))?;
    let mut prev: Option<(u32, u32)> = None;
    for _ in 0..ntrans {
        let q = r.id(&format!("{what} transition state"))?;
        let sym = r.id(&format!("{what} transition symbol"))?;
        in_range(r, q, num_states, "nta transition state")?;
        in_range(r, sym, sigma, "nta transition symbol")?;
        if prev.is_some_and(|p| p >= (q, sym)) {
            return Err(r.err("nta transitions must be in strictly increasing order"));
        }
        prev = Some((q, sym));
        let nfa = get_nfa(r)?;
        if nfa.alphabet_size() > num_states {
            return Err(r.err("nta transition nfa alphabet exceeds the state count"));
        }
        nta.set_transition(q, Symbol(sym), nfa);
    }
    Ok(nta)
}

/// Peeks the kind of an encoded artifact without decoding the payload
/// (validates magic and version only).
pub fn peek_kind(bytes: &[u8]) -> Result<ArtifactKind, BinError> {
    if !is_xta(bytes) {
        return Err(BinError::new(0, "not an xta artifact (bad magic)"));
    }
    let version = *bytes
        .get(3)
        .ok_or_else(|| BinError::new(3, "truncated before the version byte"))?;
    if version != VERSION {
        return Err(BinError::new(
            3,
            format!("unsupported xta version {version} (this build reads version {VERSION})"),
        ));
    }
    let kind = *bytes
        .get(4)
        .ok_or_else(|| BinError::new(4, "truncated before the kind byte"))?;
    ArtifactKind::from_byte(kind)
        .ok_or_else(|| BinError::new(4, format!("unknown artifact kind {kind}")))
}

/// Decodes an `.xta` artifact. Total: every corrupt, truncated, or
/// forged input yields a structured error — magic/version/kind are
/// validated first, then the payload checksum, then the payload itself
/// with every reference range-checked; trailing bytes are rejected.
pub fn decode(bytes: &[u8]) -> Result<Artifact, BinError> {
    let kind = peek_kind(bytes)?;
    if bytes.len() < HEADER_LEN {
        return Err(BinError::new(5, "truncated before the payload checksum"));
    }
    let declared = u64::from_le_bytes(bytes[5..HEADER_LEN].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if checksum(kind as u8, payload) != declared {
        return Err(BinError::new(
            5,
            "artifact checksum mismatch (corrupt payload)",
        ));
    }
    let mut r = Reader {
        buf: bytes,
        pos: HEADER_LEN,
    };
    let artifact = match kind {
        ArtifactKind::Schema => {
            let sigma = get_sigma(&mut r, "schema alphabet size")?;
            let start = r.id("schema start symbol")?;
            in_range(&r, start, sigma, "schema start symbol")?;
            let nrules = r.count("schema rule count")?;
            let mut source = Dtd::new(sigma, Symbol(start));
            let mut compiled = Dtd::new(sigma, Symbol(start));
            let mut prev: Option<u32> = None;
            for _ in 0..nrules {
                let sym = r.id("schema rule symbol")?;
                in_range(&r, sym, sigma, "schema rule symbol")?;
                if prev.is_some_and(|p| p >= sym) {
                    return Err(r.err("schema rules must be in strictly increasing symbol order"));
                }
                prev = Some(sym);
                source.set_rule(Symbol(sym), get_lang(&mut r, sigma)?);
                let dfa = get_dfa(&mut r)?;
                if dfa.alphabet_size() > sigma {
                    return Err(r.err("compiled rule dfa alphabet exceeds the schema alphabet"));
                }
                compiled.set_rule(Symbol(sym), StringLang::Dfa(Arc::new(dfa)));
            }
            Artifact::Schema { source, compiled }
        }
        ArtifactKind::Rule => {
            let sigma = get_sigma(&mut r, "rule alphabet size")?;
            let source = get_lang(&mut r, sigma)?;
            let compiled = get_dfa(&mut r)?;
            if compiled.alphabet_size() > sigma {
                return Err(r.err("compiled rule dfa alphabet exceeds the rule alphabet"));
            }
            Artifact::Rule {
                sigma,
                source,
                compiled,
            }
        }
        ArtifactKind::Bout => {
            let sigma = get_sigma(&mut r, "bout joint alphabet size")?;
            let source = get_nta_body(&mut r, "bout source nta")?;
            let product = get_nta_body(&mut r, "bout product nta")?;
            Artifact::Bout {
                sigma,
                source,
                product,
            }
        }
    };
    if r.pos != bytes.len() {
        let extra = bytes.len() - r.pos;
        return Err(BinError::new(
            r.pos,
            format!("{extra} trailing byte(s) after the artifact"),
        ));
    }
    Ok(artifact)
}

/// The cache key an artifact re-fingerprints to: `(kind, key, sigma)`.
/// `xmlta store verify` compares this against the store path the entry
/// was filed under, catching stale or misfiled entries that the
/// checksum (which only covers bytes, not identity) cannot.
pub fn identity(artifact: &Artifact) -> (ArtifactKind, u64, usize) {
    use crate::cache::fingerprint;
    match artifact {
        Artifact::Schema { source, .. } => (
            ArtifactKind::Schema,
            fingerprint(source),
            source.alphabet_size(),
        ),
        Artifact::Rule { sigma, source, .. } => (ArtifactKind::Rule, fingerprint(source), *sigma),
        Artifact::Bout { sigma, source, .. } => (ArtifactKind::Bout, fingerprint(source), *sigma),
    }
}
