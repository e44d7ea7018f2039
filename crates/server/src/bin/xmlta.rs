//! The `xmlta` command-line interface.
//!
//! ```text
//! xmlta typecheck [--no-cache] [--store DIR] FILE...
//! xmlta batch [--threads N] [--no-cache] [--store DIR] [--out FILE] PATH...
//! xmlta convert INPUT... [--out FILE|DIR] [--compile] [--delta]
//! xmlta gen mixed|filtering|filtering-fail|layered [options] --out DIR
//! xmlta report FILE
//! xmlta store --store DIR (prewarm PATH... | verify | gc --max-bytes N | ls)
//! xmlta serve (--socket PATH | --tcp HOST:PORT | --stdio) [--max-frame BYTES]
//!             [--registry-cap N] [--memo-cap N] [--pipeline-depth N]
//!             [--read-timeout-ms MS] [--max-conns N] [--store DIR]
//! xmlta client (--socket PATH | --tcp HOST:PORT) [--pipeline N]
//!             [--retry N] [--timeout-ms MS] <action> [args]
//! xmlta fault-proxy --listen PATH (--socket PATH | --tcp HOST:PORT)
//!             [--seed S] [--faults N] [--stall-ms MS]
//! ```
//!
//! Instance files may be textual (`.xti`), binary (`.xtb`), or delta
//! streams of many instances (`.xts`); every subcommand sniffs the frame
//! magic, so all formats work wherever they make sense (a `.xts` carries a
//! *batch*, so `typecheck` points at `batch`/`convert` instead).
//!
//! Exit codes: for `typecheck` (local or via `client`), `0` everything
//! typechecks / `1` some instance has a counterexample / `2` some file
//! errored. All other subcommands exit `0` when the run itself completes —
//! `batch` records per-instance counterexamples and errors *inside the
//! JSON report*, which is the artifact pipelines should inspect — and `2`
//! on usage/IO errors.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use typecheck_core::{Instance, Schema};
use xmlta_server::proto::{self, BatchItemReq, Target};
use xmlta_server::Client;
use xmlta_service::batch::{run_batch, BatchItem};
use xmlta_service::cache::SchemaCache;
use xmlta_service::{
    binfmt, gen, parse_instance, parse_json, print_instance, typecheck_cached, warm_instance, Json,
};

const USAGE: &str = "\
xmlta — batch typechecker for simple XML transformations

USAGE:
  xmlta typecheck [--no-cache] [--store DIR] FILE...
      Typecheck instance files (.xti text or .xtb binary, sniffed);
      prints one line per file. --store DIR mounts a persistent artifact
      store under the schema cache (compiled products are adopted from
      and written back to DIR).
      Exit 0: all typecheck; 1: some counterexample; 2: some error.

  xmlta batch [--threads N] [--no-cache] [--store DIR] [--out FILE] PATH...
      Typecheck many instances (files, or directories scanned for *.xti
      and *.xtb, sorted) on a worker pool and write a deterministic JSON
      report to stdout or FILE. The report is byte-identical for every N.
      Exits 0 when the run completes; per-instance counterexamples and
      errors are recorded in the report, not the exit code.

  xmlta convert INPUT [--out FILE] [--compile]
      Convert one instance between the textual (.xti) and binary (.xtb)
      formats, direction sniffed from INPUT. --out defaults to INPUT with
      the extension swapped. --compile (text→binary only) compiles DTD
      rules to DFAs before encoding, so decoding yields an instance whose
      schema products are ready — the cold batch path then skips regex
      compilation entirely.

  xmlta convert INPUT... --delta --out FILE
      Pack many instances (.xti/.xtb) into one .xts delta stream: a
      schema section is emitted only when the schema context changes, so
      order shared-schema inputs adjacently and they ride as bare
      transducer frames. Converting a .xts INPUT back (no --delta)
      unpacks it into canonical .xti files under --out DIR (default:
      INPUT with its extension stripped).

  xmlta gen <family> [--out DIR] [--count N] [--groups G] [--seed S]
            [--depth D] [--layers L] [--width K]
      Write generated instance files into DIR (default `instances/`),
      printing each path. Families:
        mixed           N instances over G schema groups (default
                        1000/8/seed 7); every 11th has a counterexample
        filtering       one instance, --depth D (default 64) section levels
        filtering-fail  its failing variant
        layered         N random layered instances sharing one schema
                        group: --layers L --width K --count N --seed S

  xmlta report FILE
      Summarize a batch JSON report (pretty or single-line form).

  xmlta store --store DIR <action>
      Operate on a persistent compiled-artifact store (the directory a
      daemon mounts with `--store DIR`). Actions:
        prewarm PATH...   compile every schema product reachable from
                          the given instance files/directories into the
                          store, so a daemon started on DIR cold-starts
                          warm
        verify            re-decode and re-fingerprint every entry;
                          prints corrupt/misfiled entries (these are
                          exactly the entries a daemon would silently
                          recompile); exit 1 when any are found
        gc --max-bytes N  evict least-recently-used entries until the
                          artifacts kept hold at most N bytes
        ls                list entries (kind/key-sigma and sizes),
                          flagging corrupt ones, then the verified and
                          corrupt counts

  xmlta serve (--socket PATH | --tcp HOST:PORT | --stdio)
              [--max-frame BYTES] [--registry-cap N] [--memo-cap N]
              [--pipeline-depth N] [--read-timeout-ms MS] [--max-conns N]
              [--store DIR] [--trace PATH]
      Run the persistent typechecking server (same as `xmltad`; --socket
      and --tcp may be combined). --pipeline-depth caps the in-flight
      window a protocol-2 client may negotiate (default 32);
      --read-timeout-ms reaps idle connections (default 300000, 0
      disables); --max-conns sheds accepts past N live connections with
      a `server-overloaded` frame (default 1024). --store DIR mounts a
      persistent artifact store: compiled schemas, rule DFAs, and
      delrelab products are adopted from DIR instead of recompiled and
      written back after fresh compiles (counters in `stats`).
      --trace PATH writes one JSON trace event per span enter/exit to
      PATH (truncated at startup); summarize with `xmlta trace PATH`.

  xmlta router (--socket PATH | --tcp HOST:PORT) [--shards N]
               [--store DIR] [--shard-bin PATH] [--shard-arg ARG]...
               [--runtime-dir DIR] [--max-frame BYTES] [--drain-ms MS]
               [--breaker-failures K] [--breaker-cooldown-ms MS]
               [--health-interval-ms MS] [--link-retries N]
               [--link-timeout-ms MS] [--quiet-shards]
      Run the self-healing shard-fleet front-end: spawns N `xmltad`
      shard processes (default 2; --shard-bin overrides the daemon
      binary, --shard-arg appends per-shard flags), consistent-hashes
      schema fingerprints across them, health-checks each shard via
      the `stats` op, respawns crashed shards (re-registering every
      session's handles from its replayed prelude), fails requests
      over to ring successors behind a per-shard circuit breaker
      (--breaker-failures consecutive failures open it; half-open
      probes after --breaker-cooldown-ms), and drains shards
      gracefully at shutdown (in-flight requests finish and handles
      rebalance before SIGTERM). All shards mount one --store DIR, so
      replacements cold-start warm from the shared artifact store.
      `stats` aggregates the fleet's counters and adds `shards`,
      `shards_reachable`, `shard_respawns`, `breaker_opens`, and
      `failovers`. Exit codes match `serve`: 1 on leaked/panicked
      workers or shards that ignored their drain, 2 on usage/IO.

  xmlta trace FILE [--min-coverage PCT]
      Validate and summarize a trace file written by `--trace`: every
      line must parse as a JSON trace event and every span enter must
      pair with an exit (per connection/request-id/span/depth). Prints
      per-span counts and totals plus the share of traced wall-clock
      accounted to root spans; --min-coverage PCT exits 1 when that
      share falls below PCT (or the file has no events).

  xmlta client (--socket PATH | --tcp HOST:PORT) [--pipeline N]
               [--retry N] [--timeout-ms MS] <action>
      Talk to a running server. Actions:
        register FILE...         register instances (.xtb files go over
                                 the binary `register_bin` frame);
                                 prints `FILE HANDLE`
        typecheck TARGET...      TARGET is a file (registered, then checked
                                 by handle on this connection) or @HANDLE;
                                 prints and exits like local `typecheck`
        batch [--threads N] [--out FILE] [--stream] PATH...
                                 server-side batch over files/directories;
                                 a single .xts PATH ships as one binary
                                 `batch_bin` stream (protocol 2).
                                 --stream asks the server to stream one
                                 frame per item plus a final tally (the
                                 client reassembles them, so the report
                                 written is byte-identical)
        update TARGET EDIT       apply one structured edit to TARGET (a
                                 file, registered first, or @HANDLE) and
                                 recheck it incrementally (protocol 2):
                                 prints `TARGET -> HANDLE` for the edited
                                 instance's new handle plus the verdict
                                 line and `components_reused`. EDIT is:
                                   set-rule STATE SYMBOL RHS
                                   remove-rule STATE SYMBOL
                                   set-schema-rule (input|output) SYMBOL RHS
        raw                      JSONL passthrough: frames from stdin,
                                 responses to stdout
        ping | stats | shutdown  one request, response printed as JSON;
                                 `stats --pretty` renders the counters
                                 and latency histograms human-readably

      --pipeline N negotiates protocol 2 and keeps up to N requests in
      flight (typecheck interleaves register/typecheck pairs under
      distinct ids and correlates the completion-order responses); the
      printed results and exit codes are identical to the sequential
      client's.

      --retry N (typecheck only) drives the resilient client: up to N
      connect attempts with jittered exponential backoff, and replay of
      unanswered requests after a mid-stream drop (replay is idempotent —
      verdicts are deterministic and id-correlated). --timeout-ms bounds
      each wait for a response.

      Transport failures print one line to stderr and exit with a
      distinct code: 3 connect failed, 4 timed out, 5 connection lost
      mid-stream (2 stays usage/other errors).

      Handles are per-connection: a handle is valid for the invocation
      that registered it (every `client` action is one connection).

  xmlta fault-proxy --listen PATH (--socket PATH | --tcp HOST:PORT)
                    [--seed S] [--faults N] [--stall-ms MS]
      A deterministic fault-injection proxy for chaos smokes: forwards
      Unix-socket connections on PATH to the upstream server, injecting
      seeded faults (cuts, stalls, 1-byte writes) into the first N
      connections (default 4, seed 0), then passing the rest through
      clean. Runs until killed.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "typecheck" => cmd_typecheck(rest),
        "batch" => cmd_batch(rest),
        "convert" => cmd_convert(rest),
        "gen" => cmd_gen(rest),
        "report" => cmd_report(rest),
        "store" => cmd_store(rest),
        "trace" => cmd_trace(rest),
        "serve" => xmlta_server::cli::run_serve(rest, "xmlta serve", USAGE),
        "router" => xmlta_server::cli::run_router(rest, "xmlta router", USAGE),
        "client" => cmd_client(rest),
        "fault-proxy" => cmd_fault_proxy(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xmlta: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parses `--flag value` style options out of `args`; returns positionals.
struct Opts {
    positional: Vec<String>,
    threads: Option<usize>,
    out: Option<PathBuf>,
    socket: Option<PathBuf>,
    tcp: Option<String>,
    listen: Option<PathBuf>,
    no_cache: bool,
    compile: bool,
    delta: bool,
    pipeline: Option<usize>,
    retry: Option<u32>,
    timeout_ms: Option<u64>,
    faults: Option<usize>,
    stall_ms: Option<u64>,
    count: Option<usize>,
    groups: Option<usize>,
    seed: Option<u64>,
    depth: Option<usize>,
    layers: Option<usize>,
    width: Option<usize>,
    store: Option<PathBuf>,
    max_bytes: Option<u64>,
    stream: bool,
    pretty: bool,
    min_coverage: Option<f64>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        threads: None,
        out: None,
        socket: None,
        tcp: None,
        listen: None,
        no_cache: false,
        compile: false,
        delta: false,
        pipeline: None,
        retry: None,
        timeout_ms: None,
        faults: None,
        stall_ms: None,
        count: None,
        groups: None,
        seed: None,
        depth: None,
        layers: None,
        width: None,
        store: None,
        max_bytes: None,
        stream: false,
        pretty: false,
        min_coverage: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--threads" => o.threads = Some(parse_num(value("--threads")?)?),
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--socket" => o.socket = Some(PathBuf::from(value("--socket")?)),
            "--tcp" => o.tcp = Some(value("--tcp")?.clone()),
            "--listen" => o.listen = Some(PathBuf::from(value("--listen")?)),
            "--no-cache" => o.no_cache = true,
            "--compile" => o.compile = true,
            "--delta" => o.delta = true,
            "--pipeline" => o.pipeline = Some(parse_num(value("--pipeline")?)?),
            "--retry" => o.retry = Some(parse_num(value("--retry")?)?),
            "--timeout-ms" => o.timeout_ms = Some(parse_num(value("--timeout-ms")?)?),
            "--faults" => o.faults = Some(parse_num(value("--faults")?)?),
            "--stall-ms" => o.stall_ms = Some(parse_num(value("--stall-ms")?)?),
            "--count" => o.count = Some(parse_num(value("--count")?)?),
            "--groups" => o.groups = Some(parse_num(value("--groups")?)?),
            "--seed" => o.seed = Some(parse_num(value("--seed")?)?),
            "--depth" => o.depth = Some(parse_num(value("--depth")?)?),
            "--layers" => o.layers = Some(parse_num(value("--layers")?)?),
            "--width" => o.width = Some(parse_num(value("--width")?)?),
            "--store" => o.store = Some(PathBuf::from(value("--store")?)),
            "--max-bytes" => o.max_bytes = Some(parse_num(value("--max-bytes")?)?),
            "--stream" => o.stream = true,
            "--pretty" => o.pretty = true,
            "--min-coverage" => o.min_coverage = Some(parse_num(value("--min-coverage")?)?),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number `{s}`"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// One instance file's content, format sniffed from the frame magic.
enum Payload {
    /// Textual `.xti` source.
    Text(String),
    /// A binary `.xtb` frame.
    Binary(Vec<u8>),
    /// A `.xts` delta stream (many instances).
    Stream(Vec<u8>),
}

/// Reads an instance file, sniffing text vs binary vs delta stream.
fn read_payload(path: impl AsRef<Path>) -> Result<Payload, String> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if binfmt::is_xtb(&bytes) {
        return Ok(Payload::Binary(bytes));
    }
    if binfmt::is_xts(&bytes) {
        return Ok(Payload::Stream(bytes));
    }
    String::from_utf8(bytes).map(Payload::Text).map_err(|_| {
        format!(
            "{}: neither an .xtb/.xts frame nor UTF-8 text",
            path.display()
        )
    })
}

/// Parses or decodes a payload into an instance; the error string carries
/// the format-appropriate prefix.
fn load_instance(payload: &Payload) -> Result<Instance, String> {
    match payload {
        Payload::Text(source) => parse_instance(source).map_err(|e| format!("parse error at {e}")),
        Payload::Binary(bytes) => {
            binfmt::decode_instance(bytes).map_err(|e| format!("decode error: {e}"))
        }
        Payload::Stream(_) => Err("is a .xts delta stream (a batch, not one instance); \
                 use `xmlta batch` or `xmlta convert`"
            .into()),
    }
}

/// Opens (creating if needed) the on-disk artifact store at `dir`.
fn open_store(dir: &Path) -> Result<std::sync::Arc<xmlta_store::Store>, String> {
    xmlta_store::Store::open(dir)
        .map(std::sync::Arc::new)
        .map_err(|e| format!("--store {}: {e}", dir.display()))
}

/// A fresh schema cache, read-through/write-behind mounted on `--store`
/// when one was given.
fn cache_with_store(opts: &Opts) -> Result<SchemaCache, String> {
    let mut cache = SchemaCache::new();
    if let Some(dir) = &opts.store {
        cache.set_store(open_store(dir)?);
    }
    Ok(cache)
}

fn cmd_typecheck(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    if opts.positional.is_empty() {
        return Err("typecheck needs at least one FILE".into());
    }
    let cache = cache_with_store(&opts)?;
    let mut saw_counterexample = false;
    let mut saw_error = false;
    for path in &opts.positional {
        let payload = read_payload(path)?;
        match load_instance(&payload) {
            Err(e) => {
                println!("{path}: {e}");
                saw_error = true;
            }
            Ok(instance) => {
                let outcome = if opts.no_cache {
                    typecheck_core::typecheck(&instance)
                } else {
                    typecheck_cached(&cache, &instance)
                };
                match outcome {
                    Ok(o) if o.type_checks() => println!("{path}: typechecks"),
                    Ok(o) => {
                        let ce = o.counter_example().expect("non-typechecking outcome");
                        println!(
                            "{path}: counterexample input: {}",
                            ce.input.display(&instance.alphabet)
                        );
                        match &ce.output {
                            Some(t) => println!(
                                "{path}: counterexample image: {}",
                                t.display(&instance.alphabet)
                            ),
                            None => println!("{path}: counterexample image is not a tree"),
                        }
                        saw_counterexample = true;
                    }
                    Err(e) => {
                        println!("{path}: error: {e}");
                        saw_error = true;
                    }
                }
            }
        }
    }
    Ok(exit_for(saw_counterexample, saw_error))
}

fn exit_for(saw_counterexample: bool, saw_error: bool) -> ExitCode {
    if saw_error {
        ExitCode::from(2)
    } else if saw_counterexample {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Expands files and directories (scanned non-recursively for `*.xti`,
/// `*.xtb`, and `*.xts`, sorted by name) into ordered `(name, payload)`
/// pairs.
fn collect_sources(paths: &[String]) -> Result<Vec<(String, Payload)>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("{p}: {e}"))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.extension()
                        .is_some_and(|ext| ext == "xti" || ext == "xtb" || ext == "xts")
                })
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.to_path_buf());
        }
    }
    files
        .iter()
        .map(|f| {
            // Read through the real `PathBuf` (display names are lossy on
            // non-UTF-8 paths); the display form is only the report label.
            let payload = read_payload(f)?;
            Ok((f.display().to_string(), payload))
        })
        .collect()
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    if opts.positional.is_empty() {
        return Err("batch needs at least one PATH".into());
    }
    let mut items: Vec<BatchItem> = Vec::new();
    for (name, payload) in collect_sources(&opts.positional)? {
        match payload {
            Payload::Text(source) => items.push(BatchItem::from_source(name, source)),
            Payload::Binary(bytes) => items.push(BatchItem::from_binary(name, bytes)),
            // A delta stream expands into its embedded instances, named by
            // the stream (so local reports match server `batch_bin` ones).
            Payload::Stream(bytes) => items.extend(
                xmlta_service::stream_batch_items(&bytes)
                    .map_err(|e| format!("{name}: decode error: {e}"))?,
            ),
        }
    }
    if items.is_empty() {
        return Err("no instance files found".into());
    }
    let threads = opts.threads.unwrap_or_else(default_threads);
    let cache = cache_with_store(&opts)?;
    let cache_ref = (!opts.no_cache).then_some(&cache);
    let start = Instant::now();
    let outcome = run_batch(&items, threads, cache_ref);
    let elapsed = start.elapsed();
    let json = outcome.to_json();
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => print!("{json}"),
    }
    let (ok, ce, err) = outcome.tally();
    let stats = outcome.stats;
    eprintln!(
        "xmlta batch: {} instance(s) on {threads} thread(s) in {:.1} ms \
         ({ok} typecheck, {ce} counterexample(s), {err} error(s))",
        items.len(),
        elapsed.as_secs_f64() * 1e3,
    );
    if !opts.no_cache {
        eprintln!(
            "xmlta batch: schema cache {}+{} hits / {}+{} misses (schema+rule)",
            stats.schema_hits, stats.rule_hits, stats.schema_misses, stats.rule_misses,
        );
        if opts.store.is_some() {
            eprintln!(
                "xmlta batch: store {} hit(s) / {} miss(es) / {} write(s) / {} corrupt",
                stats.store_hits, stats.store_misses, stats.store_writes, stats.store_corrupt,
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// `xmlta convert INPUT... [--out FILE|DIR] [--compile] [--delta]` —
/// `.xti` ↔ `.xtb`, many-to-one `.xts` packing, and `.xts` unpacking.
fn cmd_convert(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    if opts.delta {
        return convert_delta(&opts);
    }
    let [input] = opts.positional.as_slice() else {
        return Err("convert needs exactly one INPUT file (or --delta for many)".into());
    };
    let payload = read_payload(input)?;
    if let Payload::Stream(bytes) = &payload {
        if opts.compile {
            return Err("--compile only applies to text → binary conversion".into());
        }
        return extract_stream(&opts, input, bytes);
    }
    let mut instance = load_instance(&payload).map_err(|e| format!("{input}: {e}"))?;
    let (out, bytes) = match payload {
        Payload::Text(_) => {
            if opts.compile {
                instance.input = compile_schema(&instance.input);
                instance.output = compile_schema(&instance.output);
            }
            let bytes = binfmt::encode_instance(&instance)
                .map_err(|e| format!("{input}: cannot encode: {e}"))?;
            (default_out(&opts, input, "xtb"), bytes)
        }
        Payload::Binary(_) => {
            if opts.compile {
                return Err("--compile only applies to text → binary conversion".into());
            }
            let text =
                print_instance(&instance).map_err(|e| format!("{input}: cannot print: {e}"))?;
            (default_out(&opts, input, "xti"), text.into_bytes())
        }
        Payload::Stream(_) => unreachable!("handled above"),
    };
    std::fs::write(&out, bytes).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{}", out.display());
    Ok(ExitCode::SUCCESS)
}

/// Compiles a DTD schema's rules to DFAs (NTAs pass through).
fn compile_schema(schema: &Schema) -> Schema {
    match schema {
        Schema::Dtd(d) => Schema::Dtd(d.compile_to_dfas()),
        Schema::Nta(n) => Schema::Nta(n.clone()),
    }
}

/// `convert INPUT... --delta --out FILE`: pack instances into one `.xts`
/// delta stream, embedded names taken from the input file stems.
fn convert_delta(opts: &Opts) -> Result<ExitCode, String> {
    if opts.positional.is_empty() {
        return Err("convert --delta needs at least one INPUT file".into());
    }
    let out = opts
        .out
        .clone()
        .ok_or("convert --delta needs --out FILE (the stream to write)")?;
    let mut named: Vec<(String, Instance)> = Vec::with_capacity(opts.positional.len());
    for input in &opts.positional {
        let payload = read_payload(input)?;
        let mut instance = load_instance(&payload).map_err(|e| format!("{input}: {e}"))?;
        if opts.compile {
            instance.input = compile_schema(&instance.input);
            instance.output = compile_schema(&instance.output);
        }
        let stem = Path::new(input)
            .file_stem()
            .ok_or_else(|| format!("{input}: no file name to derive an instance name from"))?
            .to_string_lossy()
            .into_owned();
        named.push((format!("{stem}.xti"), instance));
    }
    let bytes = binfmt::encode_stream(named.iter().map(|(n, i)| (n.as_str(), i)))
        .map_err(|e| format!("cannot encode stream: {e}"))?;
    std::fs::write(&out, &bytes).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{}", out.display());
    eprintln!(
        "xmlta convert: packed {} instance(s) into {} ({} bytes)",
        named.len(),
        out.display(),
        bytes.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// Unpacks a `.xts` stream into canonical `.xti` files under a directory.
fn extract_stream(opts: &Opts, input: &str, bytes: &[u8]) -> Result<ExitCode, String> {
    let instances =
        binfmt::decode_stream(bytes).map_err(|e| format!("{input}: decode error: {e}"))?;
    let dir = opts
        .out
        .clone()
        .unwrap_or_else(|| Path::new(input).with_extension(""));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, instance) in &instances {
        // Embedded names are labels, not paths: keep only the final
        // component so a hostile stream cannot write outside the target.
        let file = Path::new(name)
            .file_name()
            .ok_or_else(|| format!("{input}: instance name `{name}` has no file component"))?;
        let text = print_instance(instance)
            .map_err(|e| format!("{input}: instance `{name}`: cannot print: {e}"))?;
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{}", path.display());
    }
    eprintln!(
        "xmlta convert: unpacked {} instance(s) into {}",
        instances.len(),
        dir.display()
    );
    Ok(ExitCode::SUCCESS)
}

/// `--out` when given, else the input path with its extension swapped.
fn default_out(opts: &Opts, input: &str, ext: &str) -> PathBuf {
    opts.out
        .clone()
        .unwrap_or_else(|| Path::new(input).with_extension(ext))
}

fn cmd_gen(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    let family = opts
        .positional
        .first()
        .ok_or("gen needs a family (mixed, filtering, filtering-fail, layered)")?;
    let seed = opts.seed.unwrap_or(7);
    let files: Vec<gen::GeneratedFile> = match family.as_str() {
        "mixed" => gen::mixed_sources(opts.count.unwrap_or(1000), opts.groups.unwrap_or(8), seed)
            .map_err(|e| e.to_string())?,
        "filtering" => {
            let depth = opts.depth.unwrap_or(64);
            vec![(
                format!("filtering-{depth:04}.xti"),
                gen::filtering_source(depth).map_err(|e| e.to_string())?,
            )]
        }
        "filtering-fail" => {
            let depth = opts.depth.unwrap_or(64);
            vec![(
                format!("filtering-fail-{depth:04}.xti"),
                gen::failing_filtering_source(depth).map_err(|e| e.to_string())?,
            )]
        }
        "layered" => {
            let (layers, width) = (opts.layers.unwrap_or(4), opts.width.unwrap_or(4));
            (0..opts.count.unwrap_or(100) as u64)
                .map(|v| {
                    Ok((
                        format!("layered-{v:05}.xti"),
                        gen::layered_source(seed, layers, width, v).map_err(|e| e.to_string())?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?
        }
        other => return Err(format!("unknown family `{other}`")),
    };
    let dir = opts.out.unwrap_or_else(|| PathBuf::from("instances"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, contents) in &files {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{}", path.display());
    }
    eprintln!(
        "xmlta gen: wrote {} file(s) to {}",
        files.len(),
        dir.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err("report needs exactly one batch JSON FILE".into());
    };
    let text = read(path)?;
    let report = parse_json(&text).map_err(|e| format!("{path}: not a JSON report ({e})"))?;
    summarize_report(path, &report)
}

/// Prints the human summary of a batch report value (a file, or the
/// `report` field of a server batch response).
fn summarize_report(path: &str, report: &Json) -> Result<ExitCode, String> {
    if report.get("xmlta").and_then(Json::as_str) != Some("batch") {
        return Err(format!("{path}: not an xmlta batch report"));
    }
    let field = |name: &str| -> Result<u64, String> {
        report
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: malformed report (missing `{name}`)"))
    };
    let (total, ok, ce, err) = (
        field("total")?,
        field("typechecks")?,
        field("counterexamples")?,
        field("errors")?,
    );
    if ok + ce + err != total {
        return Err(format!("{path}: malformed report (counts do not add up)"));
    }
    let results = report
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: malformed report (missing `results`)"))?;
    println!("batch report: {total} instance(s)");
    println!("  typechecks:      {ok}");
    println!("  counterexamples: {ce}");
    println!("  errors:          {err}");
    for (label, status) in [("counterexample", "counterexample"), ("error", "error")] {
        let mut shown = 0;
        for r in results {
            if r.get("status").and_then(Json::as_str) != Some(status) {
                continue;
            }
            if shown == 5 {
                println!("  ... more {label}s elided");
                break;
            }
            if let Some(name) = r.get("name").and_then(Json::as_str) {
                println!("  {label}: {name}");
                shown += 1;
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// The store subcommand.

/// `xmlta store --store DIR <action>`: operate directly on a persistent
/// artifact store (the same directory a daemon mounts via `--store`).
fn cmd_store(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    let dir = opts
        .store
        .clone()
        .ok_or("store needs --store DIR (the store directory)")?;
    let Some((action, rest)) = opts.positional.split_first() else {
        return Err("store needs an action (prewarm, verify, gc, ls)".into());
    };
    let store = open_store(&dir)?;
    match action.as_str() {
        "prewarm" => store_prewarm(store, rest),
        "verify" => store_verify(&store),
        "gc" => store_gc(&store, opts.max_bytes),
        "ls" => store_ls(&store),
        other => Err(format!("unknown store action `{other}`")),
    }
}

/// `store prewarm PATH...`: compile every schema product reachable from
/// the given instances into the store. Idempotent — entries already
/// present are adopted (a hit), not rewritten.
fn store_prewarm(
    store: std::sync::Arc<xmlta_store::Store>,
    paths: &[String],
) -> Result<ExitCode, String> {
    if paths.is_empty() {
        return Err("store prewarm needs at least one PATH".into());
    }
    let mut cache = SchemaCache::new();
    cache.set_store(store);
    let mut warmed = 0usize;
    let mut errors = 0usize;
    for (name, payload) in collect_sources(paths)? {
        match &payload {
            Payload::Stream(bytes) => match binfmt::decode_stream(bytes) {
                Ok(instances) => {
                    for (_, instance) in &instances {
                        warm_instance(&cache, instance);
                        warmed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("xmlta store: {name}: decode error: {e}");
                    errors += 1;
                }
            },
            _ => match load_instance(&payload) {
                Ok(instance) => {
                    warm_instance(&cache, &instance);
                    warmed += 1;
                }
                Err(e) => {
                    eprintln!("xmlta store: {name}: {e}");
                    errors += 1;
                }
            },
        }
    }
    let stats = cache.stats();
    println!(
        "prewarmed {warmed} instance(s): {} new artifact(s) written, \
         {} adopted from the store, {} corrupt entry(ies) recompiled",
        stats.store_writes, stats.store_hits, stats.store_corrupt
    );
    Ok(if errors > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

/// `store verify`: re-decode and re-fingerprint every entry. Exit 1 when
/// corrupt/misfiled entries are found (a daemon would recompile these).
fn store_verify(store: &xmlta_store::Store) -> Result<ExitCode, String> {
    let report = store.verify().map_err(|e| e.to_string())?;
    println!(
        "{} entry(ies) verified, {} corrupt",
        report.ok,
        report.corrupt.len()
    );
    for (path, why) in &report.corrupt {
        println!("corrupt: {}: {why}", path.display());
    }
    Ok(if report.corrupt.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `store gc --max-bytes N`: evict least-recently-used entries down to
/// the byte budget.
fn store_gc(store: &xmlta_store::Store, max_bytes: Option<u64>) -> Result<ExitCode, String> {
    let max = max_bytes.ok_or("store gc needs --max-bytes N (the byte budget to keep)")?;
    let report = store.gc(max).map_err(|e| e.to_string())?;
    println!(
        "removed {} entry(ies) ({} bytes), kept {} ({} bytes)",
        report.removed, report.removed_bytes, report.kept, report.kept_bytes
    );
    Ok(ExitCode::SUCCESS)
}

/// `store ls`: list entries, sorted by kind/key/sigma for stable output.
/// Each entry is verified as it is listed (a corrupt one is annotated),
/// with the verified and corrupt counts before the closing tally — the
/// tally stays the last line, so `ls | grep` pipelines that close after
/// matching it never cut a write short.
fn store_ls(store: &xmlta_store::Store) -> Result<ExitCode, String> {
    let mut entries = store.entries().map_err(|e| e.to_string())?;
    entries.sort_by_key(|e| (e.kind as u8, e.key, e.sigma));
    let total: u64 = entries.iter().map(|e| e.bytes).sum();
    let report = store.verify().map_err(|e| e.to_string())?;
    for e in &entries {
        let corrupt = report.corrupt.iter().any(|(path, _)| *path == e.path);
        println!(
            "{}/{:016x}-{} {} bytes{}",
            e.kind.dir(),
            e.key,
            e.sigma,
            e.bytes,
            if corrupt { "  [corrupt]" } else { "" }
        );
    }
    println!("{} verified, {} corrupt", report.ok, report.corrupt.len());
    println!("{} entry(ies), {total} bytes", entries.len());
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// The trace subcommand.

/// `xmlta trace FILE [--min-coverage PCT]`: validate and summarize a
/// JSONL trace written by `xmltad --trace PATH`.
///
/// Checks every line parses as a JSON trace event with the documented
/// fields, that enter/exit events are balanced per
/// `(conn, id, span, depth)` (the request-id correlation: an exit must
/// close an enter of the same request), and reports per-span totals and
/// *coverage* — the share of traced wall-clock attributed to root
/// (depth-0) spans, aggregated over connections. `--min-coverage PCT`
/// turns the coverage report into a gate (exit 1 below PCT), which is
/// how ci pins the "≥ 90% of wall-clock is attributed" property.
fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    use std::collections::{HashMap, HashSet};
    let opts = parse_opts(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err("trace needs exactly one FILE (the JSONL trace)".into());
    };
    let text = read(path)?;
    // Open enter counts per (conn, id, span, depth); every exit must
    // close a matching enter, and everything must close by EOF.
    let mut open: HashMap<(u64, String, String, u64), i64> = HashMap::new();
    // Per-span tallies: count of closed spans and total duration.
    let mut per_span: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    // Per-connection (first enter ts, last event end ts, root-span µs).
    let mut conns: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    let mut ids: HashSet<(u64, String)> = HashSet::new();
    let mut events = 0usize;
    let mut failures = 0usize;
    let fail = |lineno: usize, why: String| -> String { format!("{path}:{lineno}: {why}") };
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let event = match parse_json(line) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("{}", fail(lineno, format!("not valid JSON: {e}")));
                failures += 1;
                continue;
            }
        };
        let field_u64 = |name: &str| event.get(name).and_then(Json::as_u64);
        let (Some(ts), Some(conn), Some(depth)) =
            (field_u64("ts_us"), field_u64("conn"), field_u64("depth"))
        else {
            eprintln!("{}", fail(lineno, "missing ts_us/conn/depth".to_string()));
            failures += 1;
            continue;
        };
        let (Some(span), Some(ev), Some(id)) = (
            event.get("span").and_then(Json::as_str),
            event.get("ev").and_then(Json::as_str),
            event.get("id"),
        ) else {
            eprintln!("{}", fail(lineno, "missing span/ev/id".to_string()));
            failures += 1;
            continue;
        };
        events += 1;
        let id = id.to_string();
        if id != "null" {
            ids.insert((conn, id.clone()));
        }
        let window = conns.entry(conn).or_insert((ts, ts, 0));
        window.0 = window.0.min(ts);
        window.1 = window.1.max(ts);
        let key = (conn, id, span.to_string(), depth);
        match ev {
            "enter" => *open.entry(key).or_insert(0) += 1,
            "exit" => {
                let Some(dur) = field_u64("dur_us") else {
                    eprintln!("{}", fail(lineno, "exit without dur_us".to_string()));
                    failures += 1;
                    continue;
                };
                let n = open.entry(key).or_insert(0);
                *n -= 1;
                if *n < 0 {
                    eprintln!(
                        "{}",
                        fail(lineno, format!("exit of span `{span}` without an enter"))
                    );
                    failures += 1;
                }
                // The exit's ts_us is the span *start*; its end bounds
                // the connection window.
                window.1 = window.1.max(ts + dur);
                if depth == 0 {
                    window.2 += dur;
                }
                let tally = per_span.entry(span.to_string()).or_insert((0, 0));
                tally.0 += 1;
                tally.1 += dur;
            }
            other => {
                eprintln!("{}", fail(lineno, format!("unknown ev `{other}`")));
                failures += 1;
            }
        }
    }
    for ((conn, id, span, depth), n) in open.iter().filter(|(_, n)| **n != 0) {
        eprintln!(
            "{path}: unbalanced span `{span}` (conn {conn}, id {id}, depth {depth}): \
             {n} enter(s) without exit"
        );
        failures += 1;
    }
    println!(
        "{events} event(s), {} connection(s), {} request id(s)",
        conns.len(),
        ids.len()
    );
    for (span, (count, total_us)) in &per_span {
        println!(
            "span {span}: {count} span(s), {:.1} ms total",
            *total_us as f64 / 1e3
        );
    }
    // Coverage: per connection, root-span time over the window between
    // its first and last event (clamped — concurrent root spans on a
    // pipelined connection can legitimately overlap); aggregated as the
    // window-weighted mean.
    let (mut window_total, mut accounted_total) = (0u64, 0u64);
    for (first, last, root_us) in conns.values() {
        let window = last.saturating_sub(*first);
        window_total += window;
        accounted_total += (*root_us).min(window);
    }
    let coverage = if window_total == 0 {
        0.0
    } else {
        100.0 * accounted_total as f64 / window_total as f64
    };
    println!("coverage: {coverage:.1}% of traced wall-clock in root spans");
    if failures > 0 {
        eprintln!("xmlta trace: {failures} failure(s)");
        return Ok(ExitCode::from(1));
    }
    if let Some(min) = opts.min_coverage {
        if events == 0 || coverage < min {
            eprintln!("xmlta trace: coverage {coverage:.1}% is below the {min}% gate");
            return Ok(ExitCode::from(1));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `xmlta fault-proxy`: the deterministic fault-injection proxy as a
/// standalone process, for chaos smokes in shell scripts (the chaos test
/// suite drives [`xmlta_server::fault::FaultProxy`] in-process). Runs
/// until killed.
fn cmd_fault_proxy(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    let listen = opts.listen.ok_or("fault-proxy needs --listen PATH")?;
    let upstream = match (&opts.socket, &opts.tcp) {
        (Some(path), None) => xmlta_server::ServerAddr::Unix(path.clone()),
        (None, Some(addr)) => xmlta_server::ServerAddr::Tcp(addr.clone()),
        _ => {
            return Err(
                "fault-proxy needs exactly one upstream: --socket PATH or --tcp HOST:PORT".into(),
            )
        }
    };
    let schedule = xmlta_server::fault::Schedule::from_seed(
        opts.seed.unwrap_or(0),
        opts.faults.unwrap_or(4),
        std::time::Duration::from_millis(opts.stall_ms.unwrap_or(200)),
    );
    let faulted = schedule.faulted_conns();
    let _proxy = xmlta_server::fault::FaultProxy::spawn(&listen, upstream, schedule)
        .map_err(|e| format!("{}: {e}", listen.display()))?;
    eprintln!(
        "xmlta fault-proxy: listening on {} ({faulted} faulted connection(s), then clean)",
        listen.display()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

// ---------------------------------------------------------------------
// The client subcommand.

/// A client failure, split by how it exits: `Usage` is the generic
/// message path (exit 2, like every other subcommand); `Transport`
/// carries one of the documented transport exit codes with a structured
/// one-line message for stderr.
enum ClientError {
    Usage(String),
    Transport(u8, String),
}

impl From<String> for ClientError {
    fn from(msg: String) -> ClientError {
        ClientError::Usage(msg)
    }
}

impl From<&str> for ClientError {
    fn from(msg: &str) -> ClientError {
        ClientError::Usage(msg.to_string())
    }
}

/// Exit code for connect failures (server not running / wrong address).
const EXIT_CONNECT: u8 = 3;
/// Exit code for timeouts (server up but silent past `--timeout-ms`).
const EXIT_TIMEOUT: u8 = 4;
/// Exit code for mid-stream disconnects (connection died under us).
const EXIT_DISCONNECT: u8 = 5;

/// Classifies an I/O failure into the documented transport taxonomy.
fn transport(e: std::io::Error) -> ClientError {
    use std::io::ErrorKind as K;
    match e.kind() {
        K::ConnectionRefused | K::NotFound | K::AddrNotAvailable => {
            ClientError::Transport(EXIT_CONNECT, format!("connect failed: {e}"))
        }
        K::WouldBlock | K::TimedOut => ClientError::Transport(
            EXIT_TIMEOUT,
            format!("timed out waiting for the server: {e}"),
        ),
        K::UnexpectedEof | K::ConnectionReset | K::ConnectionAborted | K::BrokenPipe => {
            ClientError::Transport(EXIT_DISCONNECT, format!("connection lost mid-stream: {e}"))
        }
        _ => ClientError::Usage(e.to_string()),
    }
}

/// The server address from `--socket`/`--tcp` (exactly one).
fn client_addr(opts: &Opts) -> Result<xmlta_server::ServerAddr, ClientError> {
    match (&opts.socket, &opts.tcp) {
        (Some(path), None) => Ok(xmlta_server::ServerAddr::Unix(path.clone())),
        (None, Some(addr)) => Ok(xmlta_server::ServerAddr::Tcp(addr.clone())),
        (Some(_), Some(_)) => Err("give --socket or --tcp, not both".into()),
        (None, None) => Err("client needs --socket PATH or --tcp HOST:PORT".into()),
    }
}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    match cmd_client_inner(args) {
        Ok(code) => Ok(code),
        Err(ClientError::Usage(msg)) => Err(msg),
        Err(ClientError::Transport(code, msg)) => {
            eprintln!("xmlta client: {msg}");
            Ok(ExitCode::from(code))
        }
    }
}

fn cmd_client_inner(args: &[String]) -> Result<ExitCode, ClientError> {
    let opts = parse_opts(args)?;
    let addr = client_addr(&opts)?;
    let Some((action, targets)) = opts.positional.split_first() else {
        return Err(
            "client needs an action (register, typecheck, update, batch, ping, stats, shutdown)"
                .into(),
        );
    };
    // `--retry` routes typecheck through the resilient client: reconnect
    // with jittered backoff and replay of unanswered requests.
    if action == "typecheck" {
        if let Some(attempts) = opts.retry {
            return client_typecheck_resilient(&addr, &opts, targets, attempts);
        }
    }
    let mut client = Client::connect_addr(&addr).map_err(transport)?;
    if let Some(ms) = opts.timeout_ms {
        client
            .set_read_timeout((ms > 0).then(|| std::time::Duration::from_millis(ms)))
            .map_err(transport)?;
    }
    if let Some(depth) = opts.pipeline {
        negotiate_v2(&mut client, Some(depth))?;
    } else if action == "update" {
        // `update` frames only parse on a protocol-2 session.
        negotiate_v2(&mut client, None)?;
    }
    match action.as_str() {
        "register" => client_register(&mut client, targets),
        "update" => client_update(&mut client, targets),
        "typecheck" => {
            // Window 1 on a v1 connection, which answers in order and
            // writes synchronously; `--pipeline N` negotiated v2 above.
            let mut responses = BTreeMap::new();
            client
                .exchange(
                    &build_check_plan(targets)?,
                    opts.pipeline.unwrap_or(1),
                    &mut responses,
                )
                .map_err(transport)?;
            print_check_results(targets, &responses)
        }
        "batch" => client_batch(&mut client, &opts, targets),
        "raw" => client_raw(&mut client),
        "ping" | "stats" | "shutdown" => {
            let frame = match action.as_str() {
                "ping" => proto::req_ping(1),
                "stats" => proto::req_stats(1),
                _ => proto::req_shutdown(1),
            };
            let response = client.roundtrip(&frame).map_err(transport)?;
            let parsed = parse_json(&response).map_err(|e| format!("bad response: {e}"))?;
            match parsed.get("stats").filter(|_| opts.pretty) {
                Some(stats) => print_stats_pretty(stats),
                None => println!("{response}"),
            }
            Ok(if parsed.get("ok").and_then(Json::as_bool) == Some(true) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            })
        }
        other => Err(format!("unknown client action `{other}`").into()),
    }
}

/// Human rendering of a `stats` reply (`client stats --pretty`): one
/// aligned line per counter in wire order, then the histograms with
/// their percentiles. Scripts keep parsing the raw JSON default.
fn print_stats_pretty(stats: &Json) {
    let Json::Obj(fields) = stats else {
        println!("{stats}");
        return;
    };
    println!("server stats:");
    for (key, value) in fields {
        if key == "hist" {
            continue;
        }
        println!("  {key:<16} {value}");
    }
    let Some(Json::Obj(hists)) = stats.get("hist") else {
        return;
    };
    if hists.is_empty() {
        return;
    }
    println!("  histograms (µs):");
    for (name, h) in hists {
        let g = |f: &str| h.get(f).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "    {name:<20} count {:<8} p50 {:<8} p90 {:<8} p99 {:<8} max {}",
            g("count"),
            g("p50"),
            g("p90"),
            g("p99"),
            g("max")
        );
    }
}

/// Sends one frame and parses the response, failing on transport errors.
fn client_roundtrip(client: &mut Client, frame: &str) -> Result<Json, ClientError> {
    let response = client.roundtrip(frame).map_err(transport)?;
    parse_json(&response).map_err(|e| format!("bad response from server: {e}").into())
}

/// The error message of an `ok:false` response.
fn response_error(response: &Json) -> Option<String> {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        return None;
    }
    let err = response.get("error")?;
    Some(format!(
        "{}: {}",
        err.get("code").and_then(Json::as_str).unwrap_or("error"),
        err.get("message").and_then(Json::as_str).unwrap_or(""),
    ))
}

/// The register frame for a file: text goes over `register`, binary
/// `.xtb` frames over `register_bin`.
fn register_frame_for(path: &str, id: u64) -> Result<String, String> {
    Ok(match read_payload(path)? {
        Payload::Text(source) => proto::req_register(id, &source),
        Payload::Binary(bytes) => proto::req_register_bin(id, &bytes),
        Payload::Stream(_) => {
            return Err(format!(
                "{path}: is a .xts delta stream; use `client batch`"
            ))
        }
    })
}

fn client_register(client: &mut Client, files: &[String]) -> Result<ExitCode, ClientError> {
    if files.is_empty() {
        return Err("register needs at least one FILE".into());
    }
    for (i, path) in files.iter().enumerate() {
        let response = client_roundtrip(client, &register_frame_for(path, i as u64 + 1)?)?;
        if let Some(e) = response_error(&response) {
            return Err(format!("{path}: {e}").into());
        }
        let handle = response
            .get("handle")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: response has no handle"))?;
        println!("{path} {handle}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints one typecheck response for `target`, updating the exit flags —
/// shared by the sequential and pipelined client paths so their output is
/// identical for the same responses.
fn print_check_response(
    target: &str,
    response: &Json,
    saw_counterexample: &mut bool,
    saw_error: &mut bool,
) {
    if let Some(e) = response_error(response) {
        println!("{target}: {e}");
        *saw_error = true;
        return;
    }
    match response.get("status").and_then(Json::as_str) {
        Some("typechecks") => println!("{target}: typechecks"),
        Some("counterexample") => {
            let input = response.get("input").and_then(Json::as_str).unwrap_or("?");
            println!("{target}: counterexample input: {input}");
            match response.get("output").and_then(Json::as_str) {
                Some(o) => println!("{target}: counterexample image: {o}"),
                None => println!("{target}: counterexample image is not a tree"),
            }
            *saw_counterexample = true;
        }
        Some("error") => {
            let message = response.get("message").and_then(Json::as_str).unwrap_or("");
            println!("{target}: error: {message}");
            *saw_error = true;
        }
        other => {
            println!("{target}: unexpected status {other:?}");
            *saw_error = true;
        }
    }
}

/// `client update (FILE|@HANDLE) EDIT`: ships one structured edit instead
/// of a whole document; the server applies it to the registered instance,
/// rechecks only the components the edit dirtied, and answers with the
/// successor's handle and verdict.
fn client_update(client: &mut Client, targets: &[String]) -> Result<ExitCode, ClientError> {
    let Some((target, edit_args)) = targets.split_first() else {
        return Err("update needs a FILE or @HANDLE followed by an edit".into());
    };
    let edit = parse_edit_args(edit_args)?;
    let handle = match target.strip_prefix('@') {
        Some(h) => h.to_string(),
        None => {
            let registered = client_roundtrip(client, &register_frame_for(target, 1)?)?;
            if let Some(e) = response_error(&registered) {
                return Err(format!("{target}: {e}").into());
            }
            registered
                .get("handle")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{target}: response has no handle"))?
                .to_string()
        }
    };
    let response = client_roundtrip(client, &proto::req_update(2, &handle, &edit))?;
    if let Some(e) = response_error(&response) {
        return Err(format!("{target}: {e}").into());
    }
    let successor = response
        .get("handle")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{target}: response has no successor handle"))?;
    let reused = response
        .get("components_reused")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    println!("{target} -> {successor} (components_reused {reused})");
    let (mut saw_counterexample, mut saw_error) = (false, false);
    print_check_response(target, &response, &mut saw_counterexample, &mut saw_error);
    Ok(exit_for(saw_counterexample, saw_error))
}

/// The CLI surface of a structured edit, mirroring `proto::Edit`.
fn parse_edit_args(args: &[String]) -> Result<proto::Edit, ClientError> {
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["set-rule", state, symbol, rhs] => Ok(proto::Edit::SetRule {
            state: state.to_string(),
            symbol: symbol.to_string(),
            rhs: rhs.to_string(),
        }),
        ["remove-rule", state, symbol] => Ok(proto::Edit::RemoveRule {
            state: state.to_string(),
            symbol: symbol.to_string(),
        }),
        ["set-schema-rule", side, symbol, rhs] if *side == "input" || *side == "output" => {
            Ok(proto::Edit::SetSchemaRule {
                output: *side == "output",
                symbol: symbol.to_string(),
                rhs: rhs.to_string(),
            })
        }
        _ => Err("update edit must be `set-rule STATE SYMBOL RHS`, \
                  `remove-rule STATE SYMBOL`, or \
                  `set-schema-rule (input|output) SYMBOL RHS`"
            .into()),
    }
}

/// Negotiates protocol 2 on a fresh connection; returns the granted
/// pipeline depth.
fn negotiate_v2(client: &mut Client, depth: Option<usize>) -> Result<usize, ClientError> {
    let response = client_roundtrip(client, &proto::req_hello_v2(0, 2, depth))?;
    if let Some(e) = response_error(&response) {
        return Err(format!("hello: {e}").into());
    }
    response
        .get("pipeline")
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| "server granted no pipeline (protocol 2 unsupported?)".into())
}

/// The register/typecheck frame plan of `client typecheck`, in send
/// order: per target `i`, a register frame with id `2i+1` (files only)
/// and then its typecheck frame with id `2i+2`. Handles are computed
/// client-side, so the typecheck frame need not wait for the register
/// reply: the server resolves handles in request order.
fn build_check_plan(targets: &[String]) -> Result<Vec<(u64, String)>, ClientError> {
    if targets.is_empty() {
        return Err("typecheck needs at least one FILE or @HANDLE".into());
    }
    let mut frames: Vec<(u64, String)> = Vec::with_capacity(2 * targets.len());
    for (i, target) in targets.iter().enumerate() {
        let reg_id = 2 * i as u64 + 1;
        let handle = match target.strip_prefix('@') {
            Some(handle) => handle.to_string(),
            None => {
                let (register, handle) = match read_payload(target)? {
                    Payload::Text(source) => {
                        let handle = xmlta_server::state::handle_for_source(&source);
                        (proto::req_register(reg_id, &source), handle)
                    }
                    Payload::Binary(bytes) => {
                        let handle = xmlta_server::state::handle_for_binary(&bytes);
                        (proto::req_register_bin(reg_id, &bytes), handle)
                    }
                    Payload::Stream(_) => {
                        return Err(
                            format!("{target}: is a .xts delta stream; use `client batch`").into(),
                        )
                    }
                };
                frames.push((reg_id, register));
                handle
            }
        };
        frames.push((reg_id + 1, proto::req_typecheck_handle(reg_id + 1, &handle)));
    }
    Ok(frames)
}

/// Prints every target's verdict from the answers to its plan. A failed
/// register is the root cause of its paired typecheck's
/// `unknown-handle`, so only the register failure is reported. A
/// resilient run has no register answers (its registers ride the
/// reconnect prelude), so there the typecheck answer speaks for both.
fn print_check_results(
    targets: &[String],
    responses: &BTreeMap<u64, String>,
) -> Result<ExitCode, ClientError> {
    let parse = |line: &str| -> Result<Json, ClientError> {
        parse_json(line).map_err(|e| format!("bad response from server: {e}").into())
    };
    let mut saw_counterexample = false;
    let mut saw_error = false;
    for (i, target) in targets.iter().enumerate() {
        let check_id = 2 * i as u64 + 2;
        if let Some(registered) = responses.get(&(check_id - 1)) {
            if let Some(e) = response_error(&parse(registered)?) {
                println!("{target}: {e}");
                saw_error = true;
                continue;
            }
        }
        let response = parse(&responses[&check_id])?;
        print_check_response(target, &response, &mut saw_counterexample, &mut saw_error);
    }
    Ok(exit_for(saw_counterexample, saw_error))
}

/// JSONL passthrough: one request frame per stdin line, one response line
/// per frame to stdout — scripting a whole session over one connection.
fn client_raw(client: &mut Client) -> Result<ExitCode, ClientError> {
    use std::io::BufRead as _;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let response = client.roundtrip(&line).map_err(transport)?;
        println!("{response}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `client typecheck --retry N`: the check plan driven through
/// [`xmlta_server::ResilientClient`] — register frames ride as the
/// reconnect prelude, typecheck frames replay until answered.
fn client_typecheck_resilient(
    addr: &xmlta_server::ServerAddr,
    opts: &Opts,
    targets: &[String],
    attempts: u32,
) -> Result<ExitCode, ClientError> {
    let frames = build_check_plan(targets)?;
    let policy = xmlta_server::RetryPolicy {
        attempts: attempts.max(1),
        seed: opts.seed.unwrap_or(0),
        ..xmlta_server::RetryPolicy::default()
    };
    let mut resilient = xmlta_server::ResilientClient::new(addr.clone(), policy);
    resilient.set_pipeline(opts.pipeline.unwrap_or(1));
    if let Some(ms) = opts.timeout_ms {
        resilient.set_read_timeout((ms > 0).then(|| std::time::Duration::from_millis(ms)));
    }
    let mut work: Vec<(u64, String)> = Vec::with_capacity(targets.len());
    for (id, frame) in frames {
        if id % 2 == 1 {
            resilient.push_prelude(frame);
        } else {
            work.push((id, frame));
        }
    }
    let responses = resilient.run(&work).map_err(transport)?;
    if resilient.reconnects() > 0 {
        eprintln!(
            "xmlta client: recovered over {} reconnect(s), {} frame(s) replayed",
            resilient.reconnects(),
            resilient.replayed()
        );
    }
    print_check_results(targets, &responses)
}

fn client_batch(
    client: &mut Client,
    opts: &Opts,
    paths: &[String],
) -> Result<ExitCode, ClientError> {
    if paths.is_empty() {
        return Err("batch needs at least one PATH".into());
    }
    let sources = collect_sources(paths)?;
    // A delta stream ships whole over the binary `batch_bin` channel
    // (protocol 2): one frame in, one report out.
    if sources.iter().any(|(_, p)| matches!(p, Payload::Stream(_))) {
        let [(name, Payload::Stream(bytes))] = sources.as_slice() else {
            return Err(
                "a .xts delta stream must be the only batch input (it is a whole batch)".into(),
            );
        };
        // Build the (large) frame before negotiating, so the base64
        // encode does not sit as dead air between the hello and the
        // batch frame on the server's connection timeline.
        let frame = proto::req_batch_bin(1, bytes, opts.threads, opts.stream);
        if opts.pipeline.is_none() {
            // `cmd_client` already negotiated when --pipeline was given.
            negotiate_v2(client, None)?;
        }
        if opts.stream {
            let mut answered = BTreeMap::new();
            client
                .exchange(&[(1, frame)], 1, &mut answered)
                .map_err(transport)?;
            let report =
                splice_streamed_report(&answered[&1]).map_err(|e| format!("{name}: {e}"))?;
            return finish_raw_report(opts, &report).map_err(ClientError::Usage);
        }
        let response = client_roundtrip(client, &frame)?;
        if let Some(e) = response_error(&response) {
            return Err(format!("{name}: {e}").into());
        }
        return finish_batch(opts, &response).map_err(ClientError::Usage);
    }
    if opts.stream {
        return Err(
            "--stream applies to a single .xts batch (the binary `batch_bin` channel)".into(),
        );
    }
    // Text payloads ride inline; binary payloads are registered over
    // `register_bin` first and ride as handles (the batch op itself has
    // no binary target — handles are the binary path's steady state).
    let mut items: Vec<BatchItemReq> = Vec::new();
    for (i, (name, payload)) in sources.into_iter().enumerate() {
        let target = match payload {
            Payload::Text(source) => Target::Source(source),
            Payload::Binary(bytes) => {
                let response =
                    client_roundtrip(client, &proto::req_register_bin(i as u64 + 1, &bytes))?;
                if let Some(e) = response_error(&response) {
                    return Err(format!("{name}: {e}").into());
                }
                let handle = response
                    .get("handle")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{name}: response has no handle"))?;
                Target::Handle(handle.to_string())
            }
            Payload::Stream(_) => unreachable!("streams handled above"),
        };
        items.push(BatchItemReq { name, target });
    }
    if items.is_empty() {
        return Err("no instance files found".into());
    }
    let response = client_roundtrip(client, &proto::req_batch(1, &items, opts.threads))?;
    if let Some(e) = response_error(&response) {
        return Err(e.into());
    }
    finish_batch(opts, &response).map_err(ClientError::Usage)
}

/// The raw JSON of a top-level `,"name":{...}` field of a one-object
/// response line, borrowed without re-rendering (so streamed frames can
/// be reassembled byte-identically).
fn raw_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let marker = format!(",\"{name}\":");
    let start = line.find(&marker)? + marker.len();
    line.ends_with('}').then(|| &line[start..line.len() - 1])
}

/// The report a streamed `batch_bin` answer (its frames joined by `\n`)
/// stands for: the closing tally with the raw items spliced in as its
/// `results` array — byte for byte the report the unstreamed reply
/// carries.
fn splice_streamed_report(answer: &str) -> Result<String, String> {
    let mut frames: Vec<&str> = answer.split('\n').collect();
    let last = frames.pop().expect("split yields at least one frame");
    let response = parse_json(last).map_err(|e| format!("bad response from server: {e}"))?;
    if let Some(e) = response_error(&response) {
        return Err(e);
    }
    let tally = raw_field(last, "report")
        .ok_or_else(|| format!("unexpected frame in batch stream: {last}"))?;
    let body = tally
        .strip_suffix('}')
        .ok_or_else(|| format!("malformed report tally: {tally}"))?;
    let items = frames
        .iter()
        .map(|line| raw_field(line, "item").ok_or_else(|| format!("malformed item frame: {line}")))
        .collect::<Result<Vec<&str>, String>>()?;
    Ok(format!("{body},\"results\":[{}]}}", items.join(",")))
}

/// Writes or summarizes a report reassembled from a streamed response.
/// `--out` writes the raw JSON verbatim, so the file is byte-identical
/// to the one the unstreamed reply produces.
fn finish_raw_report(opts: &Opts, raw: &str) -> Result<ExitCode, String> {
    match &opts.out {
        Some(path) => {
            std::fs::write(path, format!("{raw}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(ExitCode::SUCCESS)
        }
        None => {
            let report = parse_json(raw).map_err(|e| format!("bad streamed report: {e}"))?;
            summarize_report("batch", &report)
        }
    }
}

/// Writes or summarizes the report of a `batch`/`batch_bin` response.
fn finish_batch(opts: &Opts, response: &Json) -> Result<ExitCode, String> {
    let report = response.get("report").ok_or("response has no report")?;
    match &opts.out {
        Some(path) => {
            let mut rendered = String::new();
            report.render(&mut rendered);
            rendered.push('\n');
            std::fs::write(path, rendered).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(ExitCode::SUCCESS)
        }
        None => summarize_report("batch", report),
    }
}
