//! Seeded workload inputs and their known answers.
//!
//! Everything here is a pure function of the `--seed` argument: the same
//! seed yields byte-identical frames, so two runs of one seed send the
//! daemon the same traffic. The daemon only ever sees the generated
//! inputs, never the seed.

use std::fmt::Write as _;
use std::sync::Arc;
use typecheck_core::{Instance, Schema};
use xmlta_automata::Nfa;
use xmlta_base::Symbol;
use xmlta_hardness::workloads::{self, Workload};
use xmlta_server::proto::Edit;
use xmlta_service::{encode_stream, gen, parse_instance, print_instance};

/// A splitmix64 stream: small, seedable, and independent of any crate
/// whose behaviour a later change could alter.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

// ---------------------------------------------------------------------
// warm-handles / routed-handles

/// Registered variants per handle workload.
pub const HANDLE_VARIANTS: usize = 1024;

/// The handle workloads' instances: `HANDLE_VARIANTS` layered variants of
/// one schema group (shared schema pair, per-variant transducer). The
/// generator's output schema is universal over the emitted root, so the
/// known answer of every variant is "typechecks".
pub fn handle_sources(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x4841_4e44);
    let first_variant = rng.next_u64() >> 16;
    (0..HANDLE_VARIANTS as u64)
        .map(|v| {
            gen::layered_source(HANDLE_GROUP, 4, 4, first_variant + v)
                .expect("layered instances print")
        })
        .collect()
}

/// The schema group every handle-workload variant shares. Fixed, so the
/// seed varies the transducers and not the size of the shared schema:
/// the memo probe's cost scales with the schema, and a seed-dependent
/// schema would make run-to-run spread a property of the seed.
const HANDLE_GROUP: u64 = 7;

// ---------------------------------------------------------------------
// cold-mixed

/// The paper's frontier classes the cold workload draws from, with the
/// parameter range each is drawn over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Filtering,
    Copying,
    Deletion,
    NfaSchema,
    RePlus,
    Delrelab,
    XPath,
    RegexSchema,
    FailingFiltering,
}

pub const FAMILIES: [Family; 9] = [
    Family::Filtering,
    Family::Copying,
    Family::Deletion,
    Family::NfaSchema,
    Family::RePlus,
    Family::Delrelab,
    Family::XPath,
    Family::RegexSchema,
    Family::FailingFiltering,
];

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Filtering => "filtering",
            Family::Copying => "copying",
            Family::Deletion => "deletion",
            Family::NfaSchema => "dtd-nfa",
            Family::RePlus => "dtd-replus",
            Family::Delrelab => "nta-delrelab",
            Family::XPath => "xpath",
            Family::RegexSchema => "regex-schema",
            Family::FailingFiltering => "filtering-fail",
        }
    }

    /// Inclusive parameter range: depth, copying width C, log2 of the
    /// deletion path width K, NFA tail, RE+ chain, NTA layers, XPath
    /// depth, regex width.
    pub fn params(self) -> (usize, usize) {
        match self {
            Family::Filtering => (4, 16),
            Family::Copying => (1, 4),
            Family::Deletion => (1, 3),
            Family::NfaSchema => (2, 8),
            Family::RePlus => (2, 6),
            Family::Delrelab => (2, 4),
            Family::XPath => (2, 6),
            Family::RegexSchema => (4, 24),
            Family::FailingFiltering => (2, 8),
        }
    }

    pub fn workload(self, p: usize) -> Workload {
        match self {
            Family::Filtering => workloads::filtering_family(p),
            Family::Copying => workloads::copying_family(p),
            Family::Deletion => workloads::deletion_family(p),
            Family::NfaSchema => workloads::nfa_schema_family(p),
            Family::RePlus => workloads::replus_family(p),
            Family::Delrelab => workloads::delrelab_family(p),
            Family::XPath => workloads::xpath_family(p),
            Family::RegexSchema => workloads::regex_schema_family(p),
            Family::FailingFiltering => workloads::failing_filtering_family(p),
        }
    }
}

/// Items of each family per cold frame (the frame holds 9× this).
pub const ITEMS_PER_FAMILY: usize = 16;

/// The tag symbol every cold item carries in its alphabet. It occurs in
/// no rule, so it changes no verdict, but it is part of the instance
/// fingerprint: stamping a fresh value into it per request makes every
/// item distinct, so the result memo always misses.
const TAG_PREFIX: &[u8] = b"zqu";
const TAG_DIGITS: usize = 16;

/// One item of the cold template, with its known answer.
pub struct ColdItem {
    pub name: String,
    pub expect_typechecks: bool,
    /// The item as encoded (tag included), for certifying
    /// counterexamples outside the daemon.
    pub instance: Arc<Instance>,
}

/// The cold workload's frame template: one `.xts` stream holding every
/// item, and the offsets of the tags to stamp per request.
pub struct ColdTemplate {
    pub items: Vec<ColdItem>,
    pub bytes: Vec<u8>,
    tag_offsets: Vec<usize>,
    tag_base: u64,
}

/// The cold template for `seed`. Each family contributes the same items
/// to every seed — its parameters spread evenly over its range — and the
/// seed shuffles their order and picks the tags, so every seed sends the
/// same mix of frontier classes and the work per frame does not depend on
/// the seed.
pub fn cold_template(seed: u64) -> ColdTemplate {
    let mut rng = Rng::new(seed ^ 0xC01D);
    let mut specs: Vec<(Family, usize)> = Vec::new();
    for family in FAMILIES {
        let (lo, hi) = family.params();
        for i in 0..ITEMS_PER_FAMILY {
            specs.push((family, lo + i * (hi - lo + 1) / ITEMS_PER_FAMILY));
        }
    }
    rng.shuffle(&mut specs);
    let items: Vec<ColdItem> = specs
        .into_iter()
        .enumerate()
        .map(|(i, (family, param))| {
            let w = family.workload(param);
            ColdItem {
                name: format!("{i:03}-{}-{param}", family.name()),
                expect_typechecks: w.expect_typechecks,
                instance: Arc::new(tagged(&w.instance, i)),
            }
        })
        .collect();
    let bytes = encode_stream(items.iter().map(|it| (it.name.as_str(), &*it.instance)))
        .expect("cold items encode");
    // Item `i` carries tag `i` (distinct tags keep neighbouring items from
    // sharing one schema section of the delta stream); find each one.
    let mut tag_offsets = vec![usize::MAX; items.len()];
    for at in 0..=bytes.len().saturating_sub(TAG_PREFIX.len() + TAG_DIGITS) {
        if &bytes[at..at + TAG_PREFIX.len()] != TAG_PREFIX {
            continue;
        }
        let digits = &bytes[at + TAG_PREFIX.len()..at + TAG_PREFIX.len() + TAG_DIGITS];
        let i = std::str::from_utf8(digits)
            .ok()
            .and_then(|d| usize::from_str_radix(d, 16).ok())
            .expect("tags are hex");
        assert_eq!(tag_offsets[i], usize::MAX, "item {i} carries one tag");
        tag_offsets[i] = at + TAG_PREFIX.len();
    }
    assert!(
        tag_offsets.iter().all(|&at| at != usize::MAX),
        "every cold item carries its tag"
    );
    ColdTemplate {
        items,
        bytes,
        tag_offsets,
        tag_base: rng.next_u64() >> 24,
    }
}

fn tag(value: u64) -> String {
    format!(
        "{}{value:0width$x}",
        std::str::from_utf8(TAG_PREFIX).expect("ascii"),
        width = TAG_DIGITS
    )
}

/// `instance` with tag symbol `i` appended to its alphabet (by a
/// print/parse round trip, so every schema sees the grown alphabet the
/// way a client-authored file would declare it).
fn tagged(instance: &Instance, i: usize) -> Instance {
    let source = print_instance(instance).expect("family instances print");
    let close = source.find(" }").expect("printed alphabet section");
    let mut out = String::with_capacity(source.len() + 24);
    out.push_str(&source[..close]);
    out.push(' ');
    out.push_str(&tag(i as u64));
    out.push_str(&source[close..]);
    let mut tagged = parse_instance(&out).expect("tagged instance parses");
    // A bottom-up output automaton must stay complete over the grown
    // alphabet: give the tag a copy of symbol 0's transitions. No rule
    // emits the tag, so how outputs labelled with it are judged cannot
    // change a verdict — and the automaton keeps its states.
    if let Schema::Nta(aout) = &mut tagged.output {
        let tag_sym = Symbol::from_index(tagged.alphabet.len() - 1);
        let copies: Vec<(u32, Nfa)> = aout
            .transitions()
            .filter(|(_, s, _)| s.index() == 0)
            .map(|(q, _, nfa)| (q, nfa.clone()))
            .collect();
        for (q, nfa) in copies {
            aout.set_transition(q, tag_sym, nfa);
        }
    }
    tagged
}

impl ColdTemplate {
    /// The stream for request `k`: the template with a tag no earlier
    /// request carried stamped into every item.
    pub fn stamped(&self, k: u64) -> Vec<u8> {
        let mut bytes = self.bytes.clone();
        let first = self.tag_base + k * self.items.len() as u64;
        for (i, &at) in self.tag_offsets.iter().enumerate() {
            let tag = tag(first + i as u64);
            bytes[at..at + TAG_DIGITS].copy_from_slice(&tag.as_bytes()[TAG_PREFIX.len()..]);
        }
        bytes
    }
}

// ---------------------------------------------------------------------
// edit-stream

/// Sections of the edited instance.
pub const SECTIONS: usize = 64;

/// Every `FAIL_EVERY`-th edit breaks its section; the next edit repairs it.
pub const FAIL_EVERY: u64 = 8;

/// The sectioned instance: `r -> s0 .. s63`, section `sj` holding `xj*`
/// on both schema sides, and one transducer state per section whose rule
/// `(qj, xj)` emits `rhs[j]`.
pub fn sectioned_source(rhs: &[String]) -> String {
    let mut src = String::from("alphabet { r");
    for j in 0..rhs.len() {
        let _ = write!(src, " s{j} x{j}");
    }
    src.push_str(" }\n");
    for side in ["input", "output"] {
        let _ = write!(src, "{side} dtd {{\n  start r\n  r ->");
        for j in 0..rhs.len() {
            let _ = write!(src, " s{j}");
        }
        src.push('\n');
        for j in 0..rhs.len() {
            let _ = writeln!(src, "  s{j} -> x{j}*\n  x{j} -> eps");
        }
        src.push_str("}\n");
    }
    src.push_str("transducer {\n  states root p");
    for j in 0..rhs.len() {
        let _ = write!(src, " q{j}");
    }
    src.push_str("\n  initial root\n  (root, r) -> r(p)\n");
    for (j, r) in rhs.iter().enumerate() {
        let _ = writeln!(src, "  (p, s{j}) -> s{j}(q{j})");
        let _ = writeln!(src, "  (q{j}, x{j}) -> {r}");
    }
    src.push_str("}\n");
    src
}

/// One step of the edit script.
pub struct EditStep {
    pub edit: Edit,
    /// Whether the version after this edit typechecks.
    pub expect_typechecks: bool,
}

/// The edit script: sections visited in a seed-permuted rotation, each
/// edit giving its section's rule an rhs that section never had (the
/// copy count only grows). Edit `k` with `k % FAIL_EVERY == FAIL_EVERY-1`
/// makes the section emit the next section's symbol, which its output
/// rule forbids; edit `k+1` repairs that section.
pub struct EditScript {
    order: Vec<usize>,
    next: usize,
    step: u64,
    copies: Vec<usize>,
    broken: Option<usize>,
    /// The current rhs of every section (the client-side copy of the
    /// instance, for certifying counterexamples).
    pub rhs: Vec<String>,
}

impl EditScript {
    pub fn new(seed: u64, sections: usize) -> EditScript {
        let mut rng = Rng::new(seed ^ 0xED17);
        let mut order: Vec<usize> = (0..sections).collect();
        rng.shuffle(&mut order);
        let copies: Vec<usize> = (0..sections).map(|_| 1 + rng.below(3)).collect();
        let rhs = copies
            .iter()
            .enumerate()
            .map(|(j, &c)| copies_of(j, c))
            .collect();
        EditScript {
            order,
            next: 0,
            step: 0,
            copies,
            broken: None,
            rhs,
        }
    }

    pub fn base_source(seed: u64, sections: usize) -> String {
        sectioned_source(&EditScript::new(seed, sections).rhs)
    }

    pub fn current_source(&self) -> String {
        sectioned_source(&self.rhs)
    }

    pub fn next_step(&mut self) -> EditStep {
        let sections = self.order.len();
        let (j, fail) = match self.broken.take() {
            Some(j) => (j, false),
            None => {
                let j = self.order[self.next % sections];
                self.next += 1;
                let fail = self.step % FAIL_EVERY == FAIL_EVERY - 1;
                if fail {
                    self.broken = Some(j);
                }
                (j, fail)
            }
        };
        self.step += 1;
        self.copies[j] += 1;
        let mut rhs = copies_of(j, self.copies[j]);
        if fail {
            let _ = write!(rhs, " x{}", (j + 1) % sections);
        }
        self.rhs[j] = rhs.clone();
        EditStep {
            edit: Edit::SetRule {
                state: format!("q{j}"),
                symbol: format!("x{j}"),
                rhs,
            },
            expect_typechecks: !fail,
        }
    }
}

fn copies_of(j: usize, n: usize) -> String {
    vec![format!("x{j}"); n].join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(handle_sources(3), handle_sources(3));
        assert_ne!(handle_sources(3)[0], handle_sources(4)[0]);
        let (a, b) = (cold_template(5), cold_template(5));
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.stamped(9), b.stamped(9));
        assert_ne!(a.stamped(9), a.stamped(10), "every request is stamped anew");
        assert_ne!(a.bytes, cold_template(6).bytes);
        let mut s1 = EditScript::new(8, SECTIONS);
        let mut s2 = EditScript::new(8, SECTIONS);
        for _ in 0..200 {
            let (x, y) = (s1.next_step(), s2.next_step());
            assert_eq!(x.edit, y.edit);
            assert_eq!(x.expect_typechecks, y.expect_typechecks);
        }
        assert_eq!(s1.current_source(), s2.current_source());
    }

    #[test]
    fn cold_frames_decode_to_distinct_items_with_the_template_names() {
        let t = cold_template(1);
        let decoded = xmlta_service::decode_stream(&t.stamped(0)).expect("stamped stream decodes");
        assert_eq!(decoded.len(), t.items.len());
        for ((name, _), item) in decoded.iter().zip(&t.items) {
            assert_eq!(name, &item.name);
        }
        let fps: std::collections::BTreeSet<u64> = decoded
            .iter()
            .map(|(_, i)| xmlta_service::fingerprint_instance(i))
            .collect();
        assert_eq!(fps.len(), t.items.len(), "stamped items are all distinct");
    }

    #[test]
    fn every_eighth_edit_fails_and_the_next_repairs() {
        let mut script = EditScript::new(2, SECTIONS);
        let verdicts: Vec<bool> = (0..64)
            .map(|_| script.next_step().expect_typechecks)
            .collect();
        for (k, ok) in verdicts.iter().enumerate() {
            assert_eq!(*ok, k as u64 % FAIL_EVERY != FAIL_EVERY - 1, "edit {k}");
        }
    }
}
