//! The binary instance format (`.xtb`).
//!
//! The textual format (`.xti`) is the human surface; this module is the
//! machine surface: a versioned, length-prefixed binary encoding of
//! [`Instance`] payloads built for the cold path. Where the text parser
//! tokenizes lines, interns names token by token, and re-parses transducer
//! right-hand sides through the builder, the binary decoder walks one
//! contiguous buffer with a borrowing cursor: names are length-prefixed
//! UTF-8 slices interned straight out of the input, every integer is a
//! LEB128 varint, and automata/transducers are constructed directly from
//! their packed transition triples — no per-node `String` allocation, no
//! re-tokenization, no scratch alphabets.
//!
//! # Frame layout (version 1)
//!
//! ```text
//! magic   3 bytes  "xtb"
//! version 1 byte   0x01
//! symbols varint count, then per symbol: varint byte-length + UTF-8 bytes
//! input   schema payload (tag 0 = DTD, tag 1 = NTA)
//! output  schema payload
//! transducer payload
//! ```
//!
//! Schema payloads:
//!
//! ```text
//! dtd  := 0x00 sigma start nrules (sym lang)*            # rules in symbol order
//! nta  := 0x01 sigma nstates nfinals final* ntrans (state sym nfa)*
//! lang := 0x00 dfa | 0x01 nfa | 0x02 regex | 0x03 replus
//! dfa  := nstates sigma initial nfinals final* nedges (q l r)*
//! nfa  := nstates sigma ninit init* nfinals final* nedges (q l r)*
//! regex:= prefix walk; tags 0 ∅, 1 ε, 2 sym(l), 3 concat(n …), 4 alt(n …),
//!         5 star, 6 plus, 7 opt
//! replus := nfactors (sym plus-byte)*
//! ```
//!
//! Transducer payload:
//!
//! ```text
//! transducer := nstates (len name-bytes)* initial sigma
//!               nselectors selector* nrules (q sym rhs)*   # rules in (q, sym) order
//! selector   := 0x00 axis-byte expr | 0x01 dfa             # XPath | DFA
//! expr       := prefix walk; tags 0 disj, 1 child, 2 desc, 3 filter,
//!               4 test(sym), 5 wildcard
//! rhs        := nnodes node*; node := 0 elem(sym n …) | 1 state(q) | 2 select(q sel)
//! ```
//!
//! Every collection is length-prefixed, so truncation is always detected;
//! the decoder validates all state/symbol/selector references before
//! touching a constructor (the automata constructors panic on out-of-range
//! ids) and returns a structured [`BinError`] with the byte offset of the
//! violation — it never panics on adversarial input. Encoding is canonical
//! (rules and transitions in sorted order), so equal instances encode to
//! equal bytes.
//!
//! # Delta streams (`.xts`, version 1)
//!
//! Shared-schema fleets check thousands of instances that differ only in
//! their transducer. A delta stream ships the schema context once and the
//! per-instance payload after it:
//!
//! ```text
//! magic   3 bytes  "xts"
//! version 1 byte   0x01
//! section*         until end of stream, each:
//!   kind   1 byte   0x00 schema context | 0x01 instance | 0x02 instance delta
//!   length varint   byte length of the body
//!   body
//! schema body   := symbol table, input schema, output schema
//! instance body := name (varint length + UTF-8) + transducer payload
//! delta body    := name + nremoved (q sym)* + nset (q sym rhs)*   # both sorted
//! ```
//!
//! A schema section replaces the active context; every instance section
//! reuses it (symbol table included — names intern once per context, not
//! once per instance), so a 1 000-instance fleet stream is one schema
//! prefix plus 1 000 transducer frames. Sections are length-prefixed, so
//! a decoder can skip or stream them without parsing bodies, and a body
//! that does not consume exactly its declared length is rejected.
//!
//! A **delta section** shares the *instance* across versions, the way a
//! schema section shares the context across instances: when consecutive
//! instances also agree on the transducer header (state names, initial
//! state, selectors, alphabet size) — the shape an edit script produces —
//! the encoder ships only the rule diff against the previous instance:
//! the `(q, sym)` keys removed and the `(q, sym) → rhs` rules set (added
//! or replaced), both in `(q, sym)` order. An edited 1 000-version chain
//! is then one schema prefix, one full transducer, and 999 rule-sized
//! deltas. A delta is only valid directly after an instance (or another
//! delta) under the same context; removing an absent rule is rejected.

use std::fmt;
use typecheck_core::{Instance, Schema};
use xmlta_automata::{Dfa, Nfa, RePlus, Regex};
use xmlta_base::{Alphabet, Symbol};
use xmlta_schema::{Dtd, Nta, StringLang};
use xmlta_transducer::{Rhs, RhsNode, Selector, Transducer};
use xmlta_xpath::{Axis, Expr, Pattern};

/// The three magic bytes every `.xtb` frame starts with.
pub const MAGIC: &[u8; 3] = b"xtb";

/// The format version this module reads and writes.
pub const VERSION: u8 = 1;

/// The three magic bytes every `.xts` delta stream starts with.
pub const STREAM_MAGIC: &[u8; 3] = b"xts";

/// The delta-stream version this module reads and writes.
pub const STREAM_VERSION: u8 = 1;

/// Section kind: a schema context (symbol table + input/output schemas).
const SECTION_SCHEMA: u8 = 0;

/// Section kind: one instance (name + transducer) over the active context.
const SECTION_INSTANCE: u8 = 1;

/// Section kind: one instance as a rule diff against the previous
/// instance in the stream (name + removed keys + set rules).
const SECTION_INSTANCE_DELTA: u8 = 2;

/// Nesting cap for recursive payloads (regexes, XPath expressions, rhs
/// trees): deeper input is rejected instead of overflowing the stack.
const MAX_DEPTH: usize = 512;

/// Dense-table allocation cap: a DFA payload may not claim more than this
/// many `states × letters` cells, so a few forged varints cannot demand
/// gigabytes before the truncation check would fire.
const MAX_DENSE_CELLS: u64 = 1 << 26;

/// Cap on claimed automaton state counts: states are the one collection
/// whose elements may legitimately occupy zero payload bytes (an NFA
/// state with no edges), so the remaining-bytes bound in
/// [`Reader::count`] does not limit the allocation they demand. Real
/// instances top out in the hundreds of states; a frame claiming more
/// than this is rejected before any per-state allocation.
pub(crate) const MAX_STATES: usize = 1 << 20;

/// Pre-allocation clamp for length-prefixed collections: `count` is
/// already bounded by the bytes remaining in the frame, but one byte of
/// payload can claim an element dozens of bytes wide, so reserve at most
/// this many elements up front and let the `Vec` grow normally past it.
fn reserve(count: usize) -> usize {
    count.min(1024)
}

/// Whether `bytes` starts like a binary instance frame (any version).
pub fn is_xtb(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
}

/// Whether `bytes` starts like a delta stream (any version).
pub fn is_xts(bytes: &[u8]) -> bool {
    bytes.len() >= STREAM_MAGIC.len() && &bytes[..STREAM_MAGIC.len()] == STREAM_MAGIC
}

/// A structured decode (or encode) failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError {
    /// Byte offset into the frame (0 for encode-side failures).
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl BinError {
    pub(crate) fn new(offset: usize, message: impl Into<String>) -> BinError {
        BinError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for BinError {}

// ---------------------------------------------------------------------
// Encoding.

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_varint(out, v as u64);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_dfa(out: &mut Vec<u8>, d: &Dfa) {
    put_usize(out, d.num_states());
    put_usize(out, d.alphabet_size());
    put_varint(out, u64::from(d.initial_state()));
    let finals: Vec<u32> = (0..d.num_states() as u32)
        .filter(|&q| d.is_final_state(q))
        .collect();
    put_usize(out, finals.len());
    for q in finals {
        put_varint(out, u64::from(q));
    }
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    for q in 0..d.num_states() as u32 {
        for l in 0..d.alphabet_size() as u32 {
            if let Some(r) = d.step(q, l) {
                edges.push((q, l, r));
            }
        }
    }
    put_usize(out, edges.len());
    for (q, l, r) in edges {
        put_varint(out, u64::from(q));
        put_varint(out, u64::from(l));
        put_varint(out, u64::from(r));
    }
}

pub(crate) fn put_nfa(out: &mut Vec<u8>, n: &Nfa) {
    put_usize(out, n.num_states());
    put_usize(out, n.alphabet_size());
    put_usize(out, n.initial_states().len());
    for &q in n.initial_states() {
        put_varint(out, u64::from(q));
    }
    let finals: Vec<u32> = n.final_states().collect();
    put_usize(out, finals.len());
    for q in finals {
        put_varint(out, u64::from(q));
    }
    let edges: Vec<(u32, u32, u32)> = n.transitions().collect();
    put_usize(out, edges.len());
    for (q, l, r) in edges {
        put_varint(out, u64::from(q));
        put_varint(out, u64::from(l));
        put_varint(out, u64::from(r));
    }
}

fn put_regex(out: &mut Vec<u8>, re: &Regex) {
    match re {
        Regex::Empty => out.push(0),
        Regex::Epsilon => out.push(1),
        Regex::Sym(l) => {
            out.push(2);
            put_varint(out, u64::from(*l));
        }
        Regex::Concat(rs) => {
            out.push(3);
            put_usize(out, rs.len());
            rs.iter().for_each(|r| put_regex(out, r));
        }
        Regex::Alt(rs) => {
            out.push(4);
            put_usize(out, rs.len());
            rs.iter().for_each(|r| put_regex(out, r));
        }
        Regex::Star(r) => {
            out.push(5);
            put_regex(out, r);
        }
        Regex::Plus(r) => {
            out.push(6);
            put_regex(out, r);
        }
        Regex::Opt(r) => {
            out.push(7);
            put_regex(out, r);
        }
    }
}

pub(crate) fn put_lang(out: &mut Vec<u8>, lang: &StringLang) {
    match lang {
        StringLang::Dfa(d) => {
            out.push(0);
            put_dfa(out, d);
        }
        StringLang::Nfa(n) => {
            out.push(1);
            put_nfa(out, n);
        }
        StringLang::Regex(re) => {
            out.push(2);
            put_regex(out, re);
        }
        StringLang::RePlus(re) => {
            out.push(3);
            put_usize(out, re.factors().len());
            for f in re.factors() {
                put_varint(out, u64::from(f.sym));
                out.push(f.plus as u8);
            }
        }
    }
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    match schema {
        Schema::Dtd(d) => {
            out.push(0);
            put_usize(out, d.alphabet_size());
            put_varint(out, u64::from(d.start().0));
            let rules = d.sorted_rules();
            put_usize(out, rules.len());
            for (sym, lang) in rules {
                put_varint(out, u64::from(sym.0));
                put_lang(out, lang);
            }
        }
        Schema::Nta(n) => {
            out.push(1);
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
    }
}

fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Disj(a, b) => {
            out.push(0);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Child(a, b) => {
            out.push(1);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Desc(a, b) => {
            out.push(2);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Filter(e, p) => {
            out.push(3);
            put_expr(out, e);
            put_pattern(out, p);
        }
        Expr::Test(s) => {
            out.push(4);
            put_varint(out, u64::from(s.0));
        }
        Expr::Wildcard => out.push(5),
    }
}

fn put_pattern(out: &mut Vec<u8>, p: &Pattern) {
    out.push(match p.axis {
        Axis::Child => 0,
        Axis::Descendant => 1,
    });
    put_expr(out, &p.expr);
}

fn put_rhs_node(out: &mut Vec<u8>, node: &RhsNode) {
    match node {
        RhsNode::Elem(sym, children) => {
            out.push(0);
            put_varint(out, u64::from(sym.0));
            put_usize(out, children.len());
            children.iter().for_each(|c| put_rhs_node(out, c));
        }
        RhsNode::State(q) => {
            out.push(1);
            put_varint(out, u64::from(*q));
        }
        RhsNode::Select(q, sel) => {
            out.push(2);
            put_varint(out, u64::from(*q));
            put_varint(out, u64::from(*sel));
        }
    }
}

/// The transducer payload minus its rules: state names, initial state,
/// alphabet size, selectors. Two versions of an edited instance share
/// this header byte-for-byte, which is the delta-section eligibility
/// test in [`encode_stream`].
fn put_transducer_header(out: &mut Vec<u8>, t: &Transducer) {
    put_usize(out, t.num_states());
    for name in t.state_names() {
        put_str(out, name);
    }
    put_varint(out, u64::from(t.initial_state()));
    put_usize(out, t.alphabet_size());
    put_usize(out, t.selectors().len());
    for sel in t.selectors() {
        match sel {
            Selector::XPath(p) => {
                out.push(0);
                put_pattern(out, p);
            }
            Selector::Dfa(d) => {
                out.push(1);
                put_dfa(out, d);
            }
        }
    }
}

fn put_rule(out: &mut Vec<u8>, q: u32, sym: Symbol, rhs: &Rhs) {
    put_varint(out, u64::from(q));
    put_varint(out, u64::from(sym.0));
    put_usize(out, rhs.nodes.len());
    rhs.nodes.iter().for_each(|n| put_rhs_node(out, n));
}

fn put_transducer(out: &mut Vec<u8>, t: &Transducer) {
    put_transducer_header(out, t);
    let rules = t.sorted_rules();
    put_usize(out, rules.len());
    for (q, sym, rhs) in rules {
        put_rule(out, q, sym, rhs);
    }
}

/// Appends the schema-context payload of `instance` (symbol table, input
/// schema, output schema) — the shared prefix of `.xtb` frames and `.xts`
/// schema sections. Fails (without panicking) when a component mentions
/// symbols beyond the alphabet's interned names, so the symbol table could
/// not cover it (the same instances the textual printer refuses).
fn put_schema_context(out: &mut Vec<u8>, instance: &Instance) -> Result<(), BinError> {
    let table_len = instance.alphabet.len();
    if instance.alphabet_size() > table_len {
        return Err(BinError::new(
            0,
            format!(
                "instance mentions {} symbols but the alphabet names only {table_len}",
                instance.alphabet_size()
            ),
        ));
    }
    put_usize(out, table_len);
    for s in instance.alphabet.symbols() {
        put_str(out, instance.alphabet.name(s));
    }
    put_schema(out, &instance.input);
    put_schema(out, &instance.output);
    Ok(())
}

/// Encodes `instance` as one `.xtb` frame.
///
/// Fails (without panicking) when the instance cannot be decoded back
/// faithfully — a component mentions symbols beyond the alphabet's interned
/// names, so the symbol table could not cover it (the same instances the
/// textual printer refuses).
pub fn encode_instance(instance: &Instance) -> Result<Vec<u8>, BinError> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_schema_context(&mut out, instance)?;
    put_transducer(&mut out, &instance.transducer);
    Ok(out)
}

/// Encodes named instances as one `.xts` delta stream, emitting a schema
/// section only when the context (alphabet + input schema + output schema)
/// differs from the previous instance's — consecutive instances sharing a
/// schema ride as bare transducer frames — and an instance-*delta* section
/// when consecutive instances also share the transducer header (state
/// names, initial state, selectors, alphabet size): the successor ships
/// only its rule diff. Like [`encode_instance`], the encoding is
/// canonical: equal input sequences encode to equal bytes.
pub fn encode_stream<'a, I>(items: I) -> Result<Vec<u8>, BinError>
where
    I: IntoIterator<Item = (&'a str, &'a Instance)>,
{
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(STREAM_MAGIC);
    out.push(STREAM_VERSION);
    let mut context: Option<Vec<u8>> = None;
    let mut prev: Option<(Vec<u8>, &'a Instance)> = None;
    for (name, instance) in items {
        let mut schema = Vec::new();
        put_schema_context(&mut schema, instance)?;
        if context.as_deref() != Some(schema.as_slice()) {
            out.push(SECTION_SCHEMA);
            put_usize(&mut out, schema.len());
            out.extend_from_slice(&schema);
            context = Some(schema);
            // A delta is only meaningful against an instance under the
            // same context; a context switch resets the chain.
            prev = None;
        }
        let mut header = Vec::new();
        put_transducer_header(&mut header, &instance.transducer);
        let mut body = Vec::new();
        put_str(&mut body, name);
        if let Some((prev_header, prev_inst)) = &prev {
            if *prev_header == header {
                // Shared header: ship the rule diff. Both rule lists are
                // in canonical `(q, sym)` order, so a sorted merge yields
                // the removed keys and the set (added/replaced) rules in
                // the order the decoder requires.
                let old = prev_inst.transducer.sorted_rules();
                let new = instance.transducer.sorted_rules();
                let mut removed: Vec<(u32, Symbol)> = Vec::new();
                let mut set: Vec<(u32, Symbol, &Rhs)> = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < old.len() || j < new.len() {
                    let ahead = match (old.get(i), new.get(j)) {
                        (Some(&(q, a, _)), Some(&(p, b, _))) => (q, a).cmp(&(p, b)),
                        (Some(_), None) => std::cmp::Ordering::Less,
                        (None, _) => std::cmp::Ordering::Greater,
                    };
                    match ahead {
                        std::cmp::Ordering::Less => {
                            removed.push((old[i].0, old[i].1));
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            set.push(new[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            if old[i].2 != new[j].2 {
                                set.push(new[j]);
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
                put_usize(&mut body, removed.len());
                for (q, sym) in removed {
                    put_varint(&mut body, u64::from(q));
                    put_varint(&mut body, u64::from(sym.0));
                }
                put_usize(&mut body, set.len());
                for (q, sym, rhs) in set {
                    put_rule(&mut body, q, sym, rhs);
                }
                out.push(SECTION_INSTANCE_DELTA);
            } else {
                put_transducer(&mut body, &instance.transducer);
                out.push(SECTION_INSTANCE);
            }
        } else {
            put_transducer(&mut body, &instance.transducer);
            out.push(SECTION_INSTANCE);
        }
        put_usize(&mut out, body.len());
        out.extend_from_slice(&body);
        prev = Some((header, instance));
    }
    Ok(out)
}

/// Streams the `.xtb` encoding of `instance` into `w`.
pub fn write_instance<W: std::io::Write>(w: &mut W, instance: &Instance) -> std::io::Result<()> {
    let bytes = encode_instance(instance)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    w.write_all(&bytes)
}

// ---------------------------------------------------------------------
// Decoding.

/// A borrowing cursor over one frame.
pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn err(&self, message: impl Into<String>) -> BinError {
        BinError::new(self.pos, message)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, BinError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(self.err(format!("truncated frame: expected {what}"))),
        }
    }

    pub(crate) fn varint(&mut self, what: &str) -> Result<u64, BinError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(what)?;
            if shift >= 63 && byte > 1 {
                return Err(self.err(format!("varint overflow in {what}")));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint that must fit `u32` (state ids, letters, selector indices).
    pub(crate) fn id(&mut self, what: &str) -> Result<u32, BinError> {
        let v = self.varint(what)?;
        u32::try_from(v).map_err(|_| self.err(format!("{what} {v} does not fit 32 bits")))
    }

    /// A count of items that each consume at least one byte: bounded by
    /// the bytes actually remaining, so forged counts cannot demand huge
    /// allocations up front.
    pub(crate) fn count(&mut self, what: &str) -> Result<usize, BinError> {
        let v = self.varint(what)?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if v > remaining {
            return Err(self.err(format!(
                "{what} claims {v} items but only {remaining} bytes remain"
            )));
        }
        Ok(v as usize)
    }

    fn str(&mut self, what: &str) -> Result<&'a str, BinError> {
        let len = self.count(what)?;
        let start = self.pos;
        let end = start + len;
        let bytes = self
            .buf
            .get(start..end)
            .ok_or_else(|| self.err(format!("truncated frame: {what} body")))?;
        let s = std::str::from_utf8(bytes)
            .map_err(|e| BinError::new(start + e.valid_up_to(), format!("{what} is not UTF-8")))?;
        self.pos = end;
        Ok(s)
    }
}

/// Checks `v < bound`, where `bound` counts `what`s.
pub(crate) fn in_range(r: &Reader<'_>, v: u32, bound: usize, what: &str) -> Result<(), BinError> {
    if (v as usize) < bound {
        Ok(())
    } else {
        Err(r.err(format!("{what} {v} out of range (bound {bound})")))
    }
}

/// A claimed automaton dimension (state or alphabet count). Unlike item
/// lists, a dimension is not bounded by the bytes that follow — a dense
/// automaton over a large alphabet with few edges, or a bare `.xta`
/// artifact with no symbol table behind it, legitimately claims more
/// than the remaining payload — so it is capped absolutely instead.
fn dim(r: &mut Reader<'_>, what: &str) -> Result<usize, BinError> {
    let v = r.varint(what)?;
    if v > MAX_STATES as u64 {
        return Err(r.err(format!("{what} claims {v} (cap {MAX_STATES})")));
    }
    Ok(v as usize)
}

pub(crate) fn get_dfa(r: &mut Reader<'_>) -> Result<Dfa, BinError> {
    let num_states = dim(r, "dfa state count")?;
    let sigma = dim(r, "dfa alphabet size")?;
    if num_states == 0 {
        return Err(r.err("dfa needs at least one state"));
    }
    if num_states as u64 * sigma as u64 > MAX_DENSE_CELLS {
        return Err(r.err(format!(
            "dfa table of {num_states}×{sigma} cells exceeds the {MAX_DENSE_CELLS}-cell cap"
        )));
    }
    let mut dfa = Dfa::new(sigma);
    for _ in 1..num_states {
        dfa.add_state();
    }
    let initial = r.id("dfa initial state")?;
    in_range(r, initial, num_states, "dfa initial state")?;
    dfa.set_initial(initial);
    let nfinals = r.count("dfa final count")?;
    for _ in 0..nfinals {
        let q = r.id("dfa final state")?;
        in_range(r, q, num_states, "dfa final state")?;
        dfa.set_final(q);
    }
    let nedges = r.count("dfa edge count")?;
    for _ in 0..nedges {
        let q = r.id("dfa edge source")?;
        let l = r.id("dfa edge letter")?;
        let t = r.id("dfa edge target")?;
        in_range(r, q, num_states, "dfa edge source")?;
        in_range(r, l, sigma, "dfa edge letter")?;
        in_range(r, t, num_states, "dfa edge target")?;
        dfa.set_transition(q, l, t);
    }
    Ok(dfa)
}

pub(crate) fn get_nfa(r: &mut Reader<'_>) -> Result<Nfa, BinError> {
    let num_states = dim(r, "nfa state count")?;
    let sigma = dim(r, "nfa alphabet size")?;
    let mut nfa = Nfa::new(sigma);
    for _ in 0..num_states {
        nfa.add_state();
    }
    let ninit = r.count("nfa initial count")?;
    for _ in 0..ninit {
        let q = r.id("nfa initial state")?;
        in_range(r, q, num_states, "nfa initial state")?;
        nfa.set_initial(q);
    }
    let nfinals = r.count("nfa final count")?;
    for _ in 0..nfinals {
        let q = r.id("nfa final state")?;
        in_range(r, q, num_states, "nfa final state")?;
        nfa.set_final(q);
    }
    let nedges = r.count("nfa edge count")?;
    for _ in 0..nedges {
        let q = r.id("nfa edge source")?;
        let l = r.id("nfa edge letter")?;
        let t = r.id("nfa edge target")?;
        in_range(r, q, num_states, "nfa edge source")?;
        in_range(r, l, sigma, "nfa edge letter")?;
        in_range(r, t, num_states, "nfa edge target")?;
        nfa.add_transition(q, l, t);
    }
    Ok(nfa)
}

/// Decodes a regex node; `sigma` bounds the letters it may test.
fn get_regex(r: &mut Reader<'_>, sigma: usize, depth: usize) -> Result<Regex, BinError> {
    if depth > MAX_DEPTH {
        return Err(r.err("regex nesting too deep"));
    }
    match r.u8("regex tag")? {
        0 => Ok(Regex::Empty),
        1 => Ok(Regex::Epsilon),
        2 => {
            let l = r.id("regex letter")?;
            in_range(r, l, sigma, "regex letter")?;
            Ok(Regex::Sym(l))
        }
        tag @ (3 | 4) => {
            let n = r.count("regex child count")?;
            let mut children = Vec::with_capacity(reserve(n));
            for _ in 0..n {
                children.push(get_regex(r, sigma, depth + 1)?);
            }
            Ok(if tag == 3 {
                Regex::Concat(children)
            } else {
                Regex::Alt(children)
            })
        }
        5 => Ok(Regex::Star(Box::new(get_regex(r, sigma, depth + 1)?))),
        6 => Ok(Regex::Plus(Box::new(get_regex(r, sigma, depth + 1)?))),
        7 => Ok(Regex::Opt(Box::new(get_regex(r, sigma, depth + 1)?))),
        tag => Err(r.err(format!("unknown regex tag {tag}"))),
    }
}

pub(crate) fn get_lang(r: &mut Reader<'_>, sigma: usize) -> Result<StringLang, BinError> {
    match r.u8("rule language tag")? {
        0 => {
            let dfa = get_dfa(r)?;
            if dfa.alphabet_size() > sigma {
                return Err(r.err("rule dfa alphabet exceeds the schema alphabet"));
            }
            Ok(StringLang::dfa(dfa))
        }
        1 => {
            let nfa = get_nfa(r)?;
            if nfa.alphabet_size() > sigma {
                return Err(r.err("rule nfa alphabet exceeds the schema alphabet"));
            }
            Ok(StringLang::Nfa(nfa))
        }
        2 => Ok(StringLang::Regex(get_regex(r, sigma, 0)?)),
        3 => {
            let n = r.count("replus factor count")?;
            let mut factors = Vec::with_capacity(reserve(n));
            for _ in 0..n {
                let sym = r.id("replus factor symbol")?;
                in_range(r, sym, sigma, "replus factor symbol")?;
                let plus = match r.u8("replus plus flag")? {
                    0 => false,
                    1 => true,
                    b => return Err(r.err(format!("invalid replus plus flag {b}"))),
                };
                factors.push(xmlta_automata::replus::Factor { sym, plus });
            }
            Ok(StringLang::RePlus(RePlus::from_factors(factors)))
        }
        tag => Err(r.err(format!("unknown rule language tag {tag}"))),
    }
}

/// Decodes a schema; `table_len` is the symbol-table size, which bounds
/// every alphabet size (a symbol without a name could not be rendered in a
/// counterexample).
fn get_schema(r: &mut Reader<'_>, table_len: usize) -> Result<Schema, BinError> {
    match r.u8("schema tag")? {
        0 => {
            let sigma = r.count("dtd alphabet size")?;
            if sigma > table_len {
                return Err(r.err(format!(
                    "dtd alphabet size {sigma} exceeds the symbol table ({table_len} names)"
                )));
            }
            let start = r.id("dtd start symbol")?;
            in_range(r, start, sigma, "dtd start symbol")?;
            let nrules = r.count("dtd rule count")?;
            let mut dtd = Dtd::new(sigma, Symbol(start));
            let mut prev: Option<u32> = None;
            for _ in 0..nrules {
                let sym = r.id("dtd rule symbol")?;
                in_range(r, sym, sigma, "dtd rule symbol")?;
                if prev.is_some_and(|p| p >= sym) {
                    return Err(r.err("dtd rules must be in strictly increasing symbol order"));
                }
                prev = Some(sym);
                dtd.set_rule(Symbol(sym), get_lang(r, sigma)?);
            }
            Ok(Schema::Dtd(dtd))
        }
        1 => {
            let sigma = r.count("nta alphabet size")?;
            if sigma > table_len {
                return Err(r.err(format!(
                    "nta alphabet size {sigma} exceeds the symbol table ({table_len} names)"
                )));
            }
            let num_states = r.count("nta state count")?;
            if num_states > MAX_STATES {
                return Err(r.err(format!("nta claims {num_states} states (cap {MAX_STATES})")));
            }
            let mut nta = Nta::new(sigma);
            nta.add_states(num_states);
            let nfinals = r.count("nta final count")?;
            for _ in 0..nfinals {
                let q = r.id("nta final state")?;
                in_range(r, q, num_states, "nta final state")?;
                nta.set_final(q);
            }
            let ntrans = r.count("nta transition count")?;
            let mut prev: Option<(u32, u32)> = None;
            for _ in 0..ntrans {
                let q = r.id("nta transition state")?;
                let sym = r.id("nta transition symbol")?;
                in_range(r, q, num_states, "nta transition state")?;
                in_range(r, sym, sigma, "nta transition symbol")?;
                if prev.is_some_and(|p| p >= (q, sym)) {
                    return Err(r.err("nta transitions must be in strictly increasing order"));
                }
                prev = Some((q, sym));
                // Transition languages are NFAs over the *state* set.
                let nfa = get_nfa(r)?;
                if nfa.alphabet_size() > num_states {
                    return Err(r.err("nta transition nfa alphabet exceeds the state count"));
                }
                nta.set_transition(q, Symbol(sym), nfa);
            }
            Ok(Schema::Nta(nta))
        }
        tag => Err(r.err(format!("unknown schema tag {tag}"))),
    }
}

fn get_expr(r: &mut Reader<'_>, sigma: usize, depth: usize) -> Result<Expr, BinError> {
    if depth > MAX_DEPTH {
        return Err(r.err("xpath expression nesting too deep"));
    }
    match r.u8("xpath expr tag")? {
        tag @ 0..=2 => {
            let a = Box::new(get_expr(r, sigma, depth + 1)?);
            let b = Box::new(get_expr(r, sigma, depth + 1)?);
            Ok(match tag {
                0 => Expr::Disj(a, b),
                1 => Expr::Child(a, b),
                _ => Expr::Desc(a, b),
            })
        }
        3 => {
            let e = Box::new(get_expr(r, sigma, depth + 1)?);
            let p = Box::new(get_pattern(r, sigma, depth + 1)?);
            Ok(Expr::Filter(e, p))
        }
        4 => {
            let sym = r.id("xpath element test")?;
            in_range(r, sym, sigma, "xpath element test")?;
            Ok(Expr::Test(Symbol(sym)))
        }
        5 => Ok(Expr::Wildcard),
        tag => Err(r.err(format!("unknown xpath expr tag {tag}"))),
    }
}

fn get_pattern(r: &mut Reader<'_>, sigma: usize, depth: usize) -> Result<Pattern, BinError> {
    let axis = match r.u8("xpath axis")? {
        0 => Axis::Child,
        1 => Axis::Descendant,
        b => return Err(r.err(format!("invalid xpath axis byte {b}"))),
    };
    Ok(Pattern {
        axis,
        expr: get_expr(r, sigma, depth)?,
    })
}

fn get_rhs_node(
    r: &mut Reader<'_>,
    sigma: usize,
    num_states: usize,
    num_selectors: usize,
    depth: usize,
) -> Result<RhsNode, BinError> {
    if depth > MAX_DEPTH {
        return Err(r.err("rhs nesting too deep"));
    }
    match r.u8("rhs node tag")? {
        0 => {
            let sym = r.id("rhs element symbol")?;
            in_range(r, sym, sigma, "rhs element symbol")?;
            let n = r.count("rhs child count")?;
            let mut children = Vec::with_capacity(reserve(n));
            for _ in 0..n {
                children.push(get_rhs_node(
                    r,
                    sigma,
                    num_states,
                    num_selectors,
                    depth + 1,
                )?);
            }
            Ok(RhsNode::Elem(Symbol(sym), children))
        }
        1 => {
            let q = r.id("rhs state")?;
            in_range(r, q, num_states, "rhs state")?;
            Ok(RhsNode::State(q))
        }
        2 => {
            let q = r.id("rhs selector state")?;
            let sel = r.id("rhs selector index")?;
            in_range(r, q, num_states, "rhs selector state")?;
            in_range(r, sel, num_selectors, "rhs selector index")?;
            Ok(RhsNode::Select(q, sel))
        }
        tag => Err(r.err(format!("unknown rhs node tag {tag}"))),
    }
}

fn get_transducer(r: &mut Reader<'_>, table_len: usize) -> Result<Transducer, BinError> {
    let num_states = r.count("transducer state count")?;
    if num_states > MAX_STATES {
        return Err(r.err(format!(
            "transducer claims {num_states} states (cap {MAX_STATES})"
        )));
    }
    let mut state_names = Vec::with_capacity(reserve(num_states));
    for _ in 0..num_states {
        state_names.push(r.str("transducer state name")?.to_string());
    }
    let initial = r.id("transducer initial state")?;
    in_range(r, initial, num_states, "transducer initial state")?;
    let sigma = r.count("transducer alphabet size")?;
    if sigma > table_len {
        return Err(r.err(format!(
            "transducer alphabet size {sigma} exceeds the symbol table ({table_len} names)"
        )));
    }
    let num_selectors = r.count("selector count")?;
    let mut selectors = Vec::with_capacity(reserve(num_selectors));
    for _ in 0..num_selectors {
        selectors.push(match r.u8("selector tag")? {
            0 => Selector::XPath(get_pattern(r, sigma, 0)?),
            1 => {
                let dfa = get_dfa(r)?;
                if dfa.alphabet_size() > sigma {
                    return Err(r.err("selector dfa alphabet exceeds the transducer alphabet"));
                }
                Selector::Dfa(dfa)
            }
            tag => return Err(r.err(format!("unknown selector tag {tag}"))),
        });
    }
    let nrules = r.count("transducer rule count")?;
    let mut rules = Vec::with_capacity(reserve(nrules));
    let mut prev: Option<(u32, u32)> = None;
    for _ in 0..nrules {
        let q = r.id("rule state")?;
        let sym = r.id("rule symbol")?;
        in_range(r, q, num_states, "rule state")?;
        in_range(r, sym, sigma, "rule symbol")?;
        if prev.is_some_and(|p| p >= (q, sym)) {
            return Err(r.err("transducer rules must be in strictly increasing order"));
        }
        prev = Some((q, sym));
        let nnodes = r.count("rhs node count")?;
        let mut nodes = Vec::with_capacity(reserve(nnodes));
        for _ in 0..nnodes {
            nodes.push(get_rhs_node(r, sigma, num_states, num_selectors, 0)?);
        }
        rules.push(((q, Symbol(sym)), Rhs::new(nodes)));
    }
    let at = r.pos;
    Transducer::from_parts(state_names, initial, rules, selectors, sigma)
        .map_err(|e| BinError::new(at, format!("invalid transducer: {e}")))
}

/// Decodes a delta-section rule diff and applies it to `base`: the
/// successor keeps the base's states, initial state, selectors, and
/// alphabet size, with the listed rules removed and set. Both lists must
/// be in strictly increasing `(q, sym)` order, every reference is bounds-
/// checked against the base's header, and removing an absent rule is an
/// error — a diff can never silently desynchronize from its base.
fn get_transducer_delta(r: &mut Reader<'_>, base: &Transducer) -> Result<Transducer, BinError> {
    let num_states = base.num_states();
    let sigma = base.alphabet_size();
    let num_selectors = base.selectors().len();
    let mut rules: std::collections::BTreeMap<(u32, u32), Rhs> = base
        .rules()
        .map(|(q, sym, rhs)| ((q, sym.0), rhs.clone()))
        .collect();
    let nremoved = r.count("delta removed-rule count")?;
    let mut prev: Option<(u32, u32)> = None;
    for _ in 0..nremoved {
        let q = r.id("delta removed-rule state")?;
        let sym = r.id("delta removed-rule symbol")?;
        in_range(r, q, num_states, "delta removed-rule state")?;
        in_range(r, sym, sigma, "delta removed-rule symbol")?;
        if prev.is_some_and(|p| p >= (q, sym)) {
            return Err(r.err("delta removed rules must be in strictly increasing order"));
        }
        prev = Some((q, sym));
        if rules.remove(&(q, sym)).is_none() {
            return Err(r.err(format!(
                "delta removes rule ({q}, symbol #{sym}) which the base does not have"
            )));
        }
    }
    let nset = r.count("delta set-rule count")?;
    let mut prev: Option<(u32, u32)> = None;
    for _ in 0..nset {
        let q = r.id("delta set-rule state")?;
        let sym = r.id("delta set-rule symbol")?;
        in_range(r, q, num_states, "delta set-rule state")?;
        in_range(r, sym, sigma, "delta set-rule symbol")?;
        if prev.is_some_and(|p| p >= (q, sym)) {
            return Err(r.err("delta set rules must be in strictly increasing order"));
        }
        prev = Some((q, sym));
        let nnodes = r.count("rhs node count")?;
        let mut nodes = Vec::with_capacity(reserve(nnodes));
        for _ in 0..nnodes {
            nodes.push(get_rhs_node(r, sigma, num_states, num_selectors, 0)?);
        }
        rules.insert((q, sym), Rhs::new(nodes));
    }
    let at = r.pos;
    let rules: Vec<((u32, Symbol), Rhs)> = rules
        .into_iter()
        .map(|((q, sym), rhs)| ((q, Symbol(sym)), rhs))
        .collect();
    Transducer::from_parts(
        base.state_names().to_vec(),
        base.initial_state(),
        rules,
        base.selectors().to_vec(),
        sigma,
    )
    .map_err(|e| BinError::new(at, format!("invalid transducer after delta: {e}")))
}

/// Decodes a schema context (symbol table + input/output schemas) — the
/// shared prefix of `.xtb` frames and `.xts` schema sections.
fn get_schema_context(r: &mut Reader<'_>) -> Result<(Alphabet, Schema, Schema), BinError> {
    let nsyms = r.count("symbol count")?;
    let mut alphabet = Alphabet::new();
    for _ in 0..nsyms {
        let at = r.pos;
        let name = r.str("symbol name")?;
        let sym = alphabet.intern(name);
        if sym.index() + 1 != alphabet.len() {
            return Err(BinError::new(at, format!("duplicate symbol `{name}`")));
        }
    }
    let table_len = alphabet.len();
    let input = get_schema(r, table_len)?;
    let output = get_schema(r, table_len)?;
    Ok((alphabet, input, output))
}

/// Decodes one `.xtb` frame back into an [`Instance`].
///
/// The decoder is total: truncated, corrupt, wrong-version, or adversarial
/// frames return a [`BinError`] naming the offending byte offset — never a
/// panic, never an out-of-range automaton.
pub fn decode_instance(bytes: &[u8]) -> Result<Instance, BinError> {
    if !is_xtb(bytes) {
        return Err(BinError::new(0, "not an xtb frame (bad magic)"));
    }
    let mut r = Reader {
        buf: bytes,
        pos: MAGIC.len(),
    };
    let version = r.u8("version byte")?;
    if version != VERSION {
        return Err(BinError::new(
            MAGIC.len(),
            format!("unsupported xtb version {version} (this build reads version {VERSION})"),
        ));
    }
    let (alphabet, input, output) = get_schema_context(&mut r)?;
    let transducer = get_transducer(&mut r, alphabet.len())?;
    if r.pos != bytes.len() {
        return Err(BinError::new(
            r.pos,
            format!(
                "{} trailing byte(s) after the instance",
                bytes.len() - r.pos
            ),
        ));
    }
    Ok(Instance {
        alphabet,
        input,
        output,
        transducer,
    })
}

/// Decodes a `.xts` delta stream into its named instances. Each instance
/// clones the active schema context (compiled DTD rules are `Arc`-shared,
/// so the clone is shallow where it matters) and owns its transducer.
///
/// Total like [`decode_instance`]: truncation, unknown section kinds,
/// section bodies that over- or under-run their declared length, and
/// instances before any schema section all return structured errors.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<(String, Instance)>, BinError> {
    if !is_xts(bytes) {
        return Err(BinError::new(0, "not an xts stream (bad magic)"));
    }
    let mut r = Reader {
        buf: bytes,
        pos: STREAM_MAGIC.len(),
    };
    let version = r.u8("stream version byte")?;
    if version != STREAM_VERSION {
        return Err(BinError::new(
            STREAM_MAGIC.len(),
            format!(
                "unsupported xts version {version} (this build reads version {STREAM_VERSION})"
            ),
        ));
    }
    let mut context: Option<(Alphabet, Schema, Schema)> = None;
    // The delta base: the previous section's transducer, cleared on a
    // context switch (a delta right after a schema section is invalid).
    let mut last: Option<Transducer> = None;
    let mut out = Vec::new();
    while r.pos < bytes.len() {
        let at = r.pos;
        let kind = r.u8("section kind")?;
        // `count` bounds the declared length by the bytes remaining, so
        // `end` cannot overflow past the buffer.
        let len = r.count("section length")?;
        let end = r.pos + len;
        match kind {
            SECTION_SCHEMA => {
                context = Some(get_schema_context(&mut r)?);
                last = None;
            }
            SECTION_INSTANCE => {
                let Some((alphabet, input, output)) = &context else {
                    return Err(BinError::new(
                        at,
                        "instance section before any schema section",
                    ));
                };
                let name = r.str("instance name")?.to_string();
                let transducer = get_transducer(&mut r, alphabet.len())?;
                last = Some(transducer.clone());
                out.push((
                    name,
                    Instance {
                        alphabet: alphabet.clone(),
                        input: input.clone(),
                        output: output.clone(),
                        transducer,
                    },
                ));
            }
            SECTION_INSTANCE_DELTA => {
                let Some((alphabet, input, output)) = &context else {
                    return Err(BinError::new(at, "delta section before any schema section"));
                };
                let Some(base) = &last else {
                    return Err(BinError::new(
                        at,
                        "delta section without a preceding instance in this context",
                    ));
                };
                let name = r.str("instance name")?.to_string();
                let transducer = get_transducer_delta(&mut r, base)?;
                last = Some(transducer.clone());
                out.push((
                    name,
                    Instance {
                        alphabet: alphabet.clone(),
                        input: input.clone(),
                        output: output.clone(),
                        transducer,
                    },
                ));
            }
            other => return Err(r.err(format!("unknown section kind {other}"))),
        }
        if r.pos != end {
            return Err(BinError::new(
                r.pos,
                format!(
                    "section declared {len} byte(s) but its body consumed {}",
                    r.pos - (end - len)
                ),
            ));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Base64 (standard alphabet, padded) — the wire carrier for binary
// payloads inside JSON frames.

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes `bytes` as standard padded base64.
pub fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let v = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let enc = |i: u32| B64[(v >> (18 - 6 * i) & 0x3f) as usize] as char;
        out.push(enc(0));
        out.push(enc(1));
        out.push(if chunk.len() > 1 { enc(2) } else { '=' });
        out.push(if chunk.len() > 2 { enc(3) } else { '=' });
    }
    out
}

/// Decodes standard padded base64 (whitespace-free).
pub fn base64_decode(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = chunk.iter().filter(|&&b| b == b'=').count();
        if pad > 2 || (!last && pad > 0) || chunk[..4 - pad].contains(&b'=') {
            return Err(format!("invalid base64 padding in chunk {i}"));
        }
        let mut v: u32 = 0;
        for &b in &chunk[..4 - pad] {
            let digit = match b {
                b'A'..=b'Z' => b - b'A',
                b'a'..=b'z' => b - b'a' + 26,
                b'0'..=b'9' => b - b'0' + 52,
                b'+' => 62,
                b'/' => 63,
                _ => return Err(format!("invalid base64 byte 0x{b:02x}")),
            };
            v = (v << 6) | u32::from(digit);
        }
        v <<= 6 * pad as u32;
        out.push((v >> 16) as u8);
        if pad < 2 {
            out.push((v >> 8) as u8);
        }
        if pad < 1 {
            out.push(v as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_roundtrips() {
        for len in 0..40usize {
            let bytes: Vec<u8> = (0..len as u8)
                .map(|b| b.wrapping_mul(37).wrapping_add(5))
                .collect();
            let enc = base64_encode(&bytes);
            assert_eq!(base64_decode(&enc).expect("decodes"), bytes, "len {len}");
        }
        assert_eq!(base64_encode(b"xtb"), "eHRi");
        assert_eq!(base64_decode("eHRiAQ==").unwrap(), b"xtb\x01");
    }

    #[test]
    fn base64_rejects_garbage() {
        assert!(base64_decode("abc").is_err(), "length not multiple of 4");
        assert!(base64_decode("ab=c").is_err(), "pad inside chunk");
        assert!(base64_decode("a==b").is_err(), "pad before digits");
        assert!(base64_decode("ab c").is_err(), "whitespace");
        assert!(base64_decode("====").is_err(), "all padding");
    }

    #[test]
    fn varints_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader { buf: &buf, pos: 0 };
            assert_eq!(r.varint("v").unwrap(), v);
            assert_eq!(r.pos, buf.len());
        }
    }

    #[test]
    fn varint_overflow_is_an_error() {
        // 10 continuation bytes push past 64 bits.
        let buf = [0xffu8; 10];
        let mut r = Reader { buf: &buf, pos: 0 };
        let err = r.varint("v").unwrap_err();
        assert!(err.message.contains("overflow"), "{err}");
    }
}
