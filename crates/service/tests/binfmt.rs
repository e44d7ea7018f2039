//! Binary format acceptance: `.xti` → `.xtb` → `Instance` is the
//! *structural* identity (stronger than the textual round trip, which only
//! promises a printed fixpoint), corrupt frames fail with structured
//! errors instead of panics, and memo-hit verdicts are byte-identical to
//! recomputed ones.

use proptest::prelude::*;
use typecheck_core::{typecheck, Instance, Schema};
use xmlta_hardness::workloads::{self, Workload};
use xmlta_service::batch::{run_batch, BatchItem};
use xmlta_service::binfmt::{self, decode_instance, encode_instance};
use xmlta_service::{parse_instance, print_instance, SchemaCache};

fn families() -> Vec<Workload> {
    vec![
        workloads::filtering_family(3),
        workloads::failing_filtering_family(2),
        workloads::copying_family(2),
        workloads::deletion_family(2),
        workloads::random_layered_family(5, 3, 3),
        workloads::nfa_schema_family(3),
        workloads::replus_family(3),
        workloads::xpath_family(3),
        workloads::regex_schema_family(4),
        workloads::example11_workload(),
        workloads::delrelab_family(3),
    ]
}

/// encode → decode is the structural identity, and the decoded instance
/// typechecks to the same outcome.
fn assert_binary_roundtrip(name: &str, instance: &Instance) {
    let bytes = encode_instance(instance).unwrap_or_else(|e| panic!("{name}: encode: {e}"));
    assert!(binfmt::is_xtb(&bytes), "{name}: magic sniff");
    let decoded = decode_instance(&bytes).unwrap_or_else(|e| panic!("{name}: decode: {e}"));
    assert!(
        *instance == decoded,
        "{name}: decoded instance differs structurally"
    );
    // Canonical encoding: equal instances encode to equal bytes.
    let reencoded = encode_instance(&decoded).unwrap_or_else(|e| panic!("{name}: re-encode: {e}"));
    assert_eq!(bytes, reencoded, "{name}: encoding must be canonical");
    let direct = typecheck(instance).unwrap_or_else(|e| panic!("{name}: direct engine: {e}"));
    let via_bin = typecheck(&decoded).unwrap_or_else(|e| panic!("{name}: decoded engine: {e}"));
    assert_eq!(
        direct.type_checks(),
        via_bin.type_checks(),
        "{name}: outcome must survive the binary round-trip"
    );
}

#[test]
fn workload_families_roundtrip_binary() {
    for w in families() {
        assert_binary_roundtrip(&w.name, &w.instance);
    }
}

#[test]
fn text_to_binary_to_instance_is_identity_on_parses() {
    // The satellite property verbatim: .xti → parse → .xtb → Instance is
    // the structural identity, and printing both gives identical text.
    for w in families() {
        let Ok(printed) = print_instance(&w.instance) else {
            continue; // NTA printing goes through regex extraction
        };
        let parsed = parse_instance(&printed).expect("printed form parses");
        let bytes = encode_instance(&parsed).expect("encodes");
        let decoded = decode_instance(&bytes).expect("decodes");
        assert!(parsed == decoded, "{}", w.name);
        assert_eq!(
            print_instance(&parsed).expect("prints"),
            print_instance(&decoded).expect("prints"),
            "{}: printed forms must agree",
            w.name
        );
    }
}

#[test]
fn compiled_instances_roundtrip_binary() {
    // DFA-rule schemas (the `xmlta convert --compile` artifact) round-trip
    // exactly: representation is preserved, not just language.
    let w = workloads::filtering_family(3);
    let (din, dout) = match (&w.instance.input, &w.instance.output) {
        (Schema::Dtd(i), Schema::Dtd(o)) => (i.compile_to_dfas(), o.compile_to_dfas()),
        _ => unreachable!("filtering instances are DTD-based"),
    };
    let compiled = Instance::dtds(
        w.instance.alphabet.clone(),
        din,
        dout,
        w.instance.transducer.clone(),
    );
    assert_binary_roundtrip("filtering/compiled", &compiled);
    let decoded = decode_instance(&encode_instance(&compiled).unwrap()).unwrap();
    match &decoded.input {
        Schema::Dtd(d) => assert!(d.is_dfa_dtd(), "DFA rules stay DFA rules"),
        Schema::Nta(_) => panic!("schema kind changed"),
    }
}

#[test]
fn dfa_selectors_roundtrip_binary() {
    // `selector $name = @dfa { ... }` exercises `Selector::Dfa`, which the
    // workload families don't cover.
    let src = "\
input dtd {
  start r
  r -> x*
  x -> t
  t -> eps
}
output dtd {
  start r
  r -> y*
}
transducer {
  states q p
  initial q
  selector $deep = x t
  (q, r) -> r <p, $deep>
  (p, t) -> y
}
";
    let parsed = parse_instance(src).expect("parses");
    assert_binary_roundtrip("dfa-selector", &parsed);
}

#[test]
fn truncated_frames_error_at_every_prefix() {
    let w = workloads::xpath_family(2);
    let bytes = encode_instance(&w.instance).expect("encodes");
    for len in 0..bytes.len() {
        let err = decode_instance(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("prefix of {len} bytes decoded successfully"));
        assert!(
            err.offset <= len,
            "error offset {} past the {len}-byte prefix",
            err.offset
        );
    }
}

#[test]
fn corrupt_frames_never_panic() {
    let w = workloads::filtering_family(2);
    let bytes = encode_instance(&w.instance).expect("encodes");
    // Single-byte corruptions may still decode (e.g. a flipped name byte
    // is just another name) — the property is totality, not rejection.
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            let _ = decode_instance(&corrupt);
        }
    }
    // Trailing garbage after a complete instance is rejected.
    let mut padded = bytes.clone();
    padded.push(0);
    let err = decode_instance(&padded).unwrap_err();
    assert!(err.message.contains("trailing"), "{err}");
    assert_eq!(err.offset, bytes.len());
}

#[test]
fn wrong_version_and_magic_are_structured_errors() {
    let w = workloads::filtering_family(2);
    let mut bytes = encode_instance(&w.instance).expect("encodes");
    bytes[3] = 9;
    let err = decode_instance(&bytes).unwrap_err();
    assert!(err.message.contains("unsupported xtb version 9"), "{err}");

    let err = decode_instance(b"XTI not binary").unwrap_err();
    assert!(err.message.contains("bad magic"), "{err}");
    assert_eq!(err.offset, 0);

    let err = decode_instance(b"xt").unwrap_err();
    assert!(err.message.contains("bad magic"), "{err}");
}

#[test]
fn forged_counts_and_references_are_rejected() {
    // A frame claiming a huge symbol count must die on the
    // remaining-bytes bound, not allocate.
    let mut forged = Vec::from(*binfmt::MAGIC);
    forged.push(binfmt::VERSION);
    forged.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x7f]); // count ≫ remaining
    let err = decode_instance(&forged).unwrap_err();
    assert!(err.message.contains("bytes remain"), "{err}");

    // Out-of-range state references are caught before any constructor.
    let w = workloads::filtering_family(2);
    let bytes = encode_instance(&w.instance).expect("encodes");
    let decoded = decode_instance(&bytes).expect("valid frame");
    assert!(w.instance == decoded);
}

#[test]
fn binary_batch_reports_match_text_batch_reports() {
    let sources: Vec<(String, String)> = (0..6u64)
        .map(|v| {
            (
                format!("layered-{v}"),
                xmlta_service::gen::layered_source(3, 3, 3, v).expect("prints"),
            )
        })
        .collect();
    let text_items: Vec<BatchItem> = sources
        .iter()
        .map(|(n, s)| BatchItem::from_source(n.clone(), s.clone()))
        .collect();
    let bin_items: Vec<BatchItem> = sources
        .iter()
        .map(|(n, s)| {
            let instance = parse_instance(s).expect("parses");
            BatchItem::from_binary(n.clone(), encode_instance(&instance).expect("encodes"))
        })
        .collect();
    let text_report = run_batch(&text_items, 2, None).to_json();
    let bin_report = run_batch(&bin_items, 2, None).to_json();
    assert_eq!(
        text_report, bin_report,
        "front-end must not change verdicts"
    );
    // The `xmlta convert --compile` artifact: DFA rules baked in.
    let compiled_items: Vec<BatchItem> = sources
        .iter()
        .map(|(n, s)| {
            let mut instance = parse_instance(s).expect("parses");
            for schema in [&mut instance.input, &mut instance.output] {
                if let Schema::Dtd(d) = schema {
                    *d = d.compile_to_dfas();
                }
            }
            BatchItem::from_binary(n.clone(), encode_instance(&instance).expect("encodes"))
        })
        .collect();
    assert_eq!(
        text_report,
        run_batch(&compiled_items, 2, None).to_json(),
        "baked DFA rules must not change verdicts"
    );
}

#[test]
fn memo_hits_are_byte_identical_to_recomputation() {
    // The same batch three ways: fresh cache (computed), warm cache
    // (memo hits), and no cache at all. All three JSON reports must be
    // byte-identical — a memo hit is indistinguishable from recomputation.
    let sources = xmlta_service::gen::mixed_sources(22, 3, 5).expect("prints");
    let items: Vec<BatchItem> = sources
        .into_iter()
        .map(|(n, s)| BatchItem::from_source(n, s))
        .collect();
    let cache = SchemaCache::new();
    let computed = run_batch(&items, 2, Some(&cache)).to_json();
    let first_hits = cache.stats().memo_hits;
    let memoized = run_batch(&items, 2, Some(&cache)).to_json();
    let stats = cache.stats();
    assert!(
        stats.memo_hits >= first_hits + items.len() as u64,
        "second run must be all memo hits: {stats:?}"
    );
    assert_eq!(
        computed, memoized,
        "memo-hit verdicts must be byte-identical"
    );
    let uncached = run_batch(&items, 2, None).to_json();
    assert_eq!(computed, uncached, "memo must agree with the direct engine");
}

#[test]
fn memo_is_bounded_and_counts_evictions() {
    let cache = SchemaCache::with_memo_capacity(4);
    let sources: Vec<String> = (0..9u64)
        .map(|v| xmlta_service::gen::layered_source(11, 2, 2, v).expect("prints"))
        .collect();
    for s in &sources {
        let instance = std::sync::Arc::new(parse_instance(s).expect("parses"));
        let _ = xmlta_service::check_instance(&instance, Some(&cache));
    }
    let (len, cap) = cache.memo_len();
    assert_eq!(cap, 4);
    assert!(len <= 4, "memo stays bounded: {len}");
    let stats = cache.stats();
    assert_eq!(stats.memo_evictions, 5, "9 distinct instances, capacity 4");
    // Evicted entries recompute correctly (and identically).
    let instance = std::sync::Arc::new(parse_instance(&sources[0]).expect("parses"));
    let again = xmlta_service::check_instance(&instance, Some(&cache));
    let fresh = xmlta_service::check_instance(&instance, None);
    assert_eq!(again, fresh);
}

// ---------------------------------------------------------------------
// Delta streams (.xts).

/// A shared-schema fleet plus one schema switch: the canonical delta
/// stream input.
fn fleet() -> Vec<(String, Instance)> {
    let mut named: Vec<(String, Instance)> = (0..5u64)
        .map(|v| {
            let source = xmlta_service::gen::layered_source(21, 3, 3, v).expect("prints");
            (
                format!("fleet-{v}"),
                parse_instance(&source).expect("parses"),
            )
        })
        .collect();
    named.push((
        "filtering".to_string(),
        workloads::filtering_family(3).instance,
    ));
    named
}

#[test]
fn delta_streams_roundtrip_structurally() {
    let fleet = fleet();
    let stream =
        binfmt::encode_stream(fleet.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    assert!(binfmt::is_xts(&stream), "stream magic sniff");
    assert!(!binfmt::is_xtb(&stream), "streams are not instance frames");
    let decoded = binfmt::decode_stream(&stream).expect("decodes");
    assert_eq!(decoded.len(), fleet.len());
    for ((want_name, want), (got_name, got)) in fleet.iter().zip(&decoded) {
        assert_eq!(want_name, got_name);
        assert!(want == got, "{want_name} differs structurally");
    }
    // Canonical: re-encoding the decoded fleet reproduces the bytes.
    let reencoded =
        binfmt::encode_stream(decoded.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    assert_eq!(stream, reencoded, "stream encoding must be canonical");
}

#[test]
fn delta_streams_share_the_schema_prefix() {
    // 64 fleet instances over one schema: the stream must be dramatically
    // smaller than 64 individual frames, and grow roughly per-transducer.
    let shared: Vec<(String, Instance)> = (0..64u64)
        .map(|v| {
            let source = xmlta_service::gen::fleet_source(22, 3, 3, v).expect("prints");
            (format!("i{v}"), parse_instance(&source).expect("parses"))
        })
        .collect();
    let stream =
        binfmt::encode_stream(shared.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    let individual: usize = shared
        .iter()
        .map(|(_, i)| encode_instance(i).expect("encodes").len())
        .sum();
    assert!(
        stream.len() * 2 < individual,
        "delta stream ({} bytes) must be well under half the individual \
         frames ({individual} bytes)",
        stream.len()
    );
    // One schema section exactly: a second schema byte run would appear if
    // contexts were re-emitted (count sections by decoding).
    assert_eq!(binfmt::decode_stream(&stream).expect("decodes").len(), 64);

    // Interleaving two schema groups re-emits contexts — order matters,
    // and the encoder stays correct (just less compact).
    let mut interleaved = Vec::new();
    for v in 0..4u64 {
        for seed in [22u64, 23] {
            let source = xmlta_service::gen::fleet_source(seed, 3, 3, v).expect("prints");
            interleaved.push((
                format!("s{seed}-v{v}"),
                parse_instance(&source).expect("parses"),
            ));
        }
    }
    let zigzag =
        binfmt::encode_stream(interleaved.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    let decoded = binfmt::decode_stream(&zigzag).expect("decodes");
    for ((want_name, want), (got_name, got)) in interleaved.iter().zip(&decoded) {
        assert_eq!(want_name, got_name);
        assert!(want == got, "{want_name} differs");
    }
}

#[test]
fn delta_stream_truncations_and_corruptions_are_total() {
    let fleet = fleet();
    let stream =
        binfmt::encode_stream(fleet.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    // Every prefix either decodes (a section boundary) to a *prefix* of
    // the fleet, or errors with an offset inside the prefix — never a
    // panic, never an invented instance.
    for cut in 0..stream.len() {
        match binfmt::decode_stream(&stream[..cut]) {
            Ok(decoded) => {
                assert!(decoded.len() <= fleet.len());
                for ((want_name, want), (got_name, got)) in fleet.iter().zip(&decoded) {
                    assert_eq!(want_name, got_name);
                    assert!(want == got);
                }
            }
            Err(e) => assert!(
                e.offset <= cut,
                "error offset {} past the {cut}-byte prefix",
                e.offset
            ),
        }
    }
    // Bit flips are total (may still decode; must never panic).
    for i in 0..stream.len() {
        for flip in [0x01u8, 0x80] {
            let mut corrupt = stream.clone();
            corrupt[i] ^= flip;
            let _ = binfmt::decode_stream(&corrupt);
        }
    }
}

#[test]
fn delta_stream_structured_errors() {
    // Wrong magic / version.
    let err = binfmt::decode_stream(b"nope").unwrap_err();
    assert!(err.message.contains("bad magic"), "{err}");
    let err = binfmt::decode_stream(b"xts\x09").unwrap_err();
    assert!(err.message.contains("unsupported xts version 9"), "{err}");

    // An instance section before any schema context.
    let fleet = fleet();
    let one =
        binfmt::encode_stream(fleet.iter().take(1).map(|(n, i)| (n.as_str(), i))).expect("encodes");
    // Locate the instance section: it follows the schema section, whose
    // start is right after magic+version. Parse the section framing by
    // hand: kind byte, then a varint length.
    let mut pos = 4usize;
    assert_eq!(one[pos], 0, "first section is the schema context");
    pos += 1;
    let mut len = 0u64;
    let mut shift = 0;
    loop {
        let b = one[pos];
        pos += 1;
        len |= u64::from(b & 0x7f) << shift;
        shift += 7;
        if b & 0x80 == 0 {
            break;
        }
    }
    let instance_section = &one[pos + len as usize..];
    let mut orphan = b"xts\x01".to_vec();
    orphan.extend_from_slice(instance_section);
    let err = binfmt::decode_stream(&orphan).unwrap_err();
    assert!(err.message.contains("before any schema section"), "{err}");

    // An unknown section kind.
    let mut unknown = b"xts\x01".to_vec();
    unknown.push(7);
    unknown.push(0);
    let err = binfmt::decode_stream(&unknown).unwrap_err();
    assert!(err.message.contains("unknown section kind 7"), "{err}");

    // A section whose declared length disagrees with its body.
    let mut mismatched = one.clone();
    // Grow the instance section's declared length by appending a byte the
    // body will not consume: easiest via a trailing garbage byte, which
    // lands inside no section and trips the framing.
    mismatched.push(1);
    let err = binfmt::decode_stream(&mismatched).unwrap_err();
    assert!(
        err.offset >= one.len() - 1,
        "error should point at the trailing section: {err}"
    );

    // The empty stream is a valid empty batch.
    assert_eq!(
        binfmt::decode_stream(&binfmt::encode_stream(std::iter::empty()).unwrap())
            .unwrap()
            .len(),
        0
    );
}

/// An edit-chain base: the shapes the `update` op produces — successive
/// versions differing in single transducer rules over a fixed schema.
const CHAIN: &str = "\
alphabet { r x y }
input dtd {
  start r
  r -> x*
  x -> eps
  y -> eps
}
output dtd {
  start r
  r -> y*
  x -> eps
  y -> eps
}
transducer {
  states root q
  initial root
  (root, r) -> r(q)
  (q, x) -> y
  (q, y) -> y
}
";

/// An edit chain over [`CHAIN`]: a removal, a change, and two additions.
fn chain_versions() -> Vec<(String, Instance)> {
    let base = parse_instance(CHAIN).expect("parses");
    let edits: &[(&str, &str, Option<&str>)] = &[
        ("q", "y", None),         // remove (q, y)
        ("q", "x", Some("x")),    // change (q, x)
        ("q", "y", Some("x y")),  // add (q, y) back, different rhs
        ("root", "x", Some("y")), // add a rule on another state
    ];
    let mut versions = vec![("v0".to_string(), base)];
    for (k, (state, symbol, rhs)) in edits.iter().enumerate() {
        let prev = &versions.last().unwrap().1;
        let mut alphabet = prev.alphabet.clone();
        let transducer = match rhs {
            Some(rhs) => prev
                .transducer
                .with_rule(state, symbol, rhs, &mut alphabet)
                .expect("edit applies"),
            None => prev
                .transducer
                .without_rule(state, alphabet.lookup(symbol).expect("interned"))
                .expect("edit applies"),
        };
        versions.push((
            format!("v{}", k + 1),
            Instance {
                alphabet,
                input: prev.input.clone(),
                output: prev.output.clone(),
                transducer,
            },
        ));
    }
    versions
}

/// Walks a stream's section framing: `(kind, full byte range)` per
/// section, the range covering kind byte + length varint + body.
fn sections(stream: &[u8]) -> Vec<(u8, std::ops::Range<usize>)> {
    let mut pos = 4usize;
    let mut out = Vec::new();
    while pos < stream.len() {
        let start = pos;
        let kind = stream[pos];
        pos += 1;
        let mut len = 0u64;
        let mut shift = 0;
        loop {
            let b = stream[pos];
            pos += 1;
            len |= u64::from(b & 0x7f) << shift;
            shift += 7;
            if b & 0x80 == 0 {
                break;
            }
        }
        pos += len as usize;
        out.push((kind, start..pos));
    }
    out
}

#[test]
fn delta_sections_ship_rule_edits_compactly() {
    let versions = chain_versions();
    let stream =
        binfmt::encode_stream(versions.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    // One schema context, one full transducer, then rule-sized deltas.
    let kinds: Vec<u8> = sections(&stream).iter().map(|(k, _)| *k).collect();
    assert_eq!(kinds, vec![0, 1, 2, 2, 2, 2], "edit chains ride as deltas");
    let secs = sections(&stream);
    let full = secs[1].1.len();
    for (k, range) in &secs[2..] {
        assert_eq!(*k, 2);
        assert!(
            range.len() < full,
            "a single-rule delta ({} bytes) must undercut the full \
             transducer section ({full} bytes)",
            range.len()
        );
    }
    // Round-trip: structural equality at every version, canonical bytes.
    let decoded = binfmt::decode_stream(&stream).expect("decodes");
    assert_eq!(decoded.len(), versions.len());
    for ((want_name, want), (got_name, got)) in versions.iter().zip(&decoded) {
        assert_eq!(want_name, got_name);
        assert!(want == got, "{want_name} differs after delta");
    }
    let reencoded =
        binfmt::encode_stream(decoded.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    assert_eq!(stream, reencoded, "delta encoding must be canonical");

    // A context switch resets the chain: interleaving another schema
    // forces a fresh schema section *and* a full transducer after it.
    let stranger = fleet().remove(0);
    let mut mixed = versions.clone();
    mixed.push(stranger);
    mixed.push(versions[1].clone());
    let zigzag =
        binfmt::encode_stream(mixed.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    let kinds: Vec<u8> = sections(&zigzag).iter().map(|(k, _)| *k).collect();
    assert_eq!(
        kinds,
        vec![0, 1, 2, 2, 2, 2, 0, 1, 0, 1],
        "deltas never cross a schema section"
    );
    let decoded = binfmt::decode_stream(&zigzag).expect("decodes");
    for ((want_name, want), (got_name, got)) in mixed.iter().zip(&decoded) {
        assert_eq!(want_name, got_name);
        assert!(want == got, "{want_name} differs in mixed stream");
    }
}

#[test]
fn delta_section_structured_errors() {
    let versions = chain_versions();
    let stream =
        binfmt::encode_stream(versions.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    let secs = sections(&stream);
    let schema = &stream[secs[0].1.clone()];
    let instance = &stream[secs[1].1.clone()];
    // v1 is a pure removal of (q, y), so its delta is the probe.
    let removal_delta = &stream[secs[2].1.clone()];

    // A delta with no schema context at all.
    let mut orphan = b"xts\x01".to_vec();
    orphan.extend_from_slice(removal_delta);
    let err = binfmt::decode_stream(&orphan).unwrap_err();
    assert!(err.message.contains("before any schema section"), "{err}");

    // A delta right after a schema section: no base instance to diff.
    let mut baseless = b"xts\x01".to_vec();
    baseless.extend_from_slice(schema);
    baseless.extend_from_slice(removal_delta);
    let err = binfmt::decode_stream(&baseless).unwrap_err();
    assert!(
        err.message.contains("without a preceding instance"),
        "{err}"
    );

    // Replaying the removal delta removes an already-removed rule.
    let mut replay = b"xts\x01".to_vec();
    replay.extend_from_slice(schema);
    replay.extend_from_slice(instance);
    replay.extend_from_slice(removal_delta);
    replay.extend_from_slice(removal_delta);
    let err = binfmt::decode_stream(&replay).unwrap_err();
    assert!(
        err.message.contains("which the base does not have"),
        "{err}"
    );

    // Truncation totality holds through delta sections too.
    for cut in 0..stream.len() {
        match binfmt::decode_stream(&stream[..cut]) {
            Ok(decoded) => assert!(decoded.len() <= versions.len()),
            Err(e) => assert!(e.offset <= cut, "offset {} past cut {cut}", e.offset),
        }
    }
}

#[test]
fn stream_batch_items_match_per_instance_batches() {
    // The same fleet via the delta stream and as individual prepared
    // items: byte-identical reports.
    let fleet = fleet();
    let stream =
        binfmt::encode_stream(fleet.iter().map(|(n, i)| (n.as_str(), i))).expect("encodes");
    let via_stream = xmlta_service::stream_batch_items(&stream).expect("decodes");
    let direct: Vec<BatchItem> = fleet
        .iter()
        .map(|(n, i)| BatchItem::from_prepared(n.clone(), std::sync::Arc::new(i.clone())))
        .collect();
    let a = run_batch(&via_stream, 2, Some(&SchemaCache::new())).to_json();
    let b = run_batch(&direct, 2, Some(&SchemaCache::new())).to_json();
    assert_eq!(a, b, "stream front-end must not change verdicts");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random layered instances survive the binary round-trip exactly.
    #[test]
    fn random_instances_roundtrip_binary(seed in 0u64..10_000) {
        let w = workloads::random_layered_family(seed, 3, 3);
        assert_binary_roundtrip(&w.name, &w.instance);
    }

    /// Random fleets survive the delta-stream round-trip exactly, at any
    /// truncation point.
    #[test]
    fn random_streams_roundtrip_and_truncate(seed in 0u64..2_000) {
        let named: Vec<(String, Instance)> = (0..3u64)
            .map(|v| {
                let w = workloads::random_layered_family(seed ^ v, 2, 2);
                (format!("s{v}"), w.instance)
            })
            .collect();
        let stream = binfmt::encode_stream(named.iter().map(|(n, i)| (n.as_str(), i)))
            .expect("encodes");
        let decoded = binfmt::decode_stream(&stream).expect("decodes");
        prop_assert_eq!(decoded.len(), named.len());
        for ((_, want), (_, got)) in named.iter().zip(&decoded) {
            prop_assert!(want == got);
        }
        let cut = (seed as usize * 37) % stream.len();
        if let Err(e) = binfmt::decode_stream(&stream[..cut]) {
            prop_assert!(e.offset <= cut);
        }
    }

    /// Every proper prefix of a random instance's encoding is an error,
    /// never a panic (truncation totality, fuzzed).
    #[test]
    fn random_truncations_error(seed in 0u64..2_000) {
        let w = workloads::random_layered_family(seed, 2, 2);
        let bytes = encode_instance(&w.instance).expect("encodes");
        let cut = (seed as usize * 31) % bytes.len();
        prop_assert!(decode_instance(&bytes[..cut]).is_err());
    }
}
