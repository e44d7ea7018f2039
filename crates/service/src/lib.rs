//! Batch typechecking as a service: textual instances, compiled-schema
//! caching, and a concurrent driver.
//!
//! The engine crates decide single instances constructed in Rust; this
//! crate turns them into a request-serving pipeline:
//!
//! * [`parse`] / [`print`](mod@print) — a concrete textual format for instances
//!   (DTD/NTA schemas + transducer) with line/col error reporting, so
//!   instances load from files and round-trip through text; [`canon`]
//!   builds the parse of an instance's print without printing it;
//! * [`binfmt`] — the binary instance format (`.xtb`): a versioned,
//!   length-prefixed, varint-packed encoding with a borrowing decoder that
//!   rebuilds instances without re-tokenizing text, plus the base64
//!   carrier used to ship binary payloads inside JSON frames;
//! * [`cache`] — a content-hash-keyed compiled-schema cache that interns
//!   regex→DFA results and shares rules via `Arc<Dfa>`, caches Theorem 20
//!   products, and memoizes whole typecheck *verdicts* by instance content
//!   in a bounded LRU ([`lru`]) so repeated instances short-circuit before
//!   the engines;
//! * [`batch`] — a deterministic multi-threaded batch driver (fixed worker
//!   pool, ordered result collection, byte-identical JSON across thread
//!   counts) over textual sources *or* pre-parsed instances;
//! * [`json`] — dependency-free JSON emission and parsing (the server's
//!   wire protocol and the batch reports share it);
//! * [`gen`] — seeded generators for large batches with shared schemas.
//!
//! The `xmlta` CLI (`typecheck`, `batch`, `gen`, `report`, `serve`,
//! `client`) lives in the `xmlta-server` crate, which layers the
//! persistent `xmltad` daemon on top of this pipeline.
//!
//! # The textual instance format
//!
//! ```text
//! # Comments are FULL LINES starting with `#` or `//` — there are no
//! # trailing comments, because `#` is a valid name character in regexes.
//! # The alphabet section is optional and pins symbol order.
//! alphabet { book title author chapter }
//!
//! input dtd {
//!   start book
//!   # a regex rule (paper syntax), an RE+ rule (Section 5), and an
//!   # explicit automaton rule:
//!   book -> title author+ chapter+
//!   chapter -> @replus title author
//!   title -> @dfa {
//!     states 1
//!     initial 0
//!     final 0
//!   }
//! }
//!
//! output dtd {
//!   start book
//!   book -> title chapter*
//! }
//!
//! transducer {
//!   states q
//!   initial q
//!   (q, book) -> book(q)
//!   # the chapter rule uses an XPath selector (Section 4):
//!   (q, chapter) -> chapter <q, .//title>
//!   (q, title) -> title
//! }
//! ```
//!
//! Schemas may instead be unranked tree automata: an `input nta { ... }`
//! section declares `states`, `final` states, and transitions
//! `(state, name) -> <regex over state names>` (Definition 2's
//! `NTA(NFA)`, with the transition NFAs written as regular expressions).
//! Transducers may also declare DFA selectors
//! (`selector $name = @dfa { ... }` or `selector $name = <regex>`)
//! referenced as `<state, $name>` in right-hand sides.

pub mod artifact;
pub mod batch;
pub mod binfmt;
pub mod cache;
pub mod canon;
pub mod error;
pub mod gen;
pub mod incremental;
pub mod json;
pub mod lru;
pub mod parse;
pub mod print;

pub use batch::{
    check_instance, check_instance_keyed, run_batch, stream_batch_items, BatchInput, BatchItem,
    BatchOutcome, ItemResult, ItemStatus,
};
pub use binfmt::{decode_instance, decode_stream, encode_instance, encode_stream, BinError};
pub use cache::{
    fingerprint_instance, instance_eq, typecheck_cached, warm_instance, ArtifactBackend,
    CacheStats, ComponentFingerprints, SchemaCache,
};
pub use error::{Loc, ParseError, PrintError};
pub use incremental::{RetainedEngine, UpdateReuse};
pub use json::{parse_json, Json};
pub use parse::parse_instance;
pub use print::print_instance;
