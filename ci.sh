#!/usr/bin/env bash
# CI for the xml-typecheck workspace. Run from the repo root.
#
#   ./ci.sh          # build, test, lint, format-check, smokes, engine report
#   ./ci.sh --bench  # additionally compile benches and refresh BENCH_lemma14.json
#
# All third-party dependencies are vendored as offline shims under
# crates/shims/, so this script needs no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== perfbench builds and self-tests against the workspace APIs"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo doc (deny rustdoc warnings, e.g. dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== xmlta CLI smoke (gen + typecheck + batch + report)"
smoke="$(mktemp -d)"
daemon=""
proxy=""
cleanup() {
    if [[ -n "$daemon" ]]; then
        kill "$daemon" 2>/dev/null || true
    fi
    if [[ -n "$proxy" ]]; then
        kill -9 "$proxy" 2>/dev/null || true
    fi
    # A router killed before its drain orphans its shard children; their
    # pids were announced on stderr.
    for err in "$smoke"/router*.err; do
        [[ -f "$err" ]] || continue
        sed -n 's/.*shard [0-9]* pid \([0-9]*\).*/\1/p' "$err" \
            | xargs -r kill -9 2>/dev/null || true
    done
    rm -rf "$smoke"
}
trap cleanup EXIT
xmlta() { cargo run --release -q -p xmlta-server --bin xmlta -- "$@"; }
xmlta gen mixed --count 24 --groups 4 --out "$smoke/instances" > "$smoke/files.txt"
# The first generated file always typechecks (exit 0).
xmlta typecheck "$(head -n1 "$smoke/files.txt")"
xmlta batch --threads 1 --out "$smoke/b1.json" "$smoke/instances"
xmlta batch --threads 4 --out "$smoke/b4.json" "$smoke/instances"
cmp "$smoke/b1.json" "$smoke/b4.json" \
    || { echo "batch JSON differs across thread counts"; exit 1; }
xmlta report "$smoke/b1.json"

echo "== .xtb binary smoke (convert round-trip + binary typecheck)"
quick="$(head -n1 "$smoke/files.txt")"
xmlta convert "$quick" --out "$smoke/quick.xtb"
xmlta convert "$smoke/quick.xtb" --out "$smoke/quick-back.xti"
# Generated files are canonical prints, so text -> binary -> text must be
# byte-identical.
cmp "$quick" "$smoke/quick-back.xti" \
    || { echo ".xtb round-trip changed the instance"; exit 1; }
xmlta typecheck "$smoke/quick.xtb"
# The compiled artifact (DFA rules baked in) must agree.
xmlta convert "$quick" --compile --out "$smoke/quick-compiled.xtb"
xmlta typecheck "$smoke/quick-compiled.xtb"
# A batch mixing the text and binary twins stays deterministic.
xmlta batch --threads 2 --out "$smoke/bmix.json" "$quick" "$smoke/quick.xtb"
grep -q '"errors": 0' "$smoke/bmix.json" \
    || { echo "mixed text/binary batch errored"; exit 1; }

echo "== .xts delta-stream smoke (pack + local batch + round-trip)"
# Pack three generated instances (two sharing nothing, order preserved)
# into one delta stream, batch it locally, and unpack it back to
# byte-identical canonical text.
d1="$(sed -n 1p "$smoke/files.txt")"
d2="$(sed -n 2p "$smoke/files.txt")"
d3="$(sed -n 3p "$smoke/files.txt")"
xmlta convert "$d1" "$d2" "$d3" --delta --out "$smoke/all.xts"
xmlta batch --threads 2 --out "$smoke/bstream.json" "$smoke/all.xts"
grep -q '"errors": 0' "$smoke/bstream.json" \
    || { echo "delta-stream batch errored"; exit 1; }
xmlta convert "$smoke/all.xts" --out "$smoke/unpacked"
for f in "$d1" "$d2" "$d3"; do
    cmp "$f" "$smoke/unpacked/$(basename "$f")" \
        || { echo "delta round-trip changed $(basename "$f")"; exit 1; }
done

echo "== xmltad server smoke (socket + register + typecheck + clean shutdown)"
sock="$smoke/xmltad.sock"
# A passing and a failing instance from the generated set (every 11th
# generated file is a failing filtering variant; index 10 with these
# parameters).
pass_file="$(head -n1 "$smoke/files.txt")"
fail_file="$(grep -m1 'filtering-fail' "$smoke/files.txt")"
# Launch the binary directly (not via `cargo run`) so $daemon is the
# actual xmltad pid and the cleanup trap can kill it on failure paths.
./target/release/xmltad --socket "$sock" &
daemon=$!
for _ in $(seq 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
[[ -S "$sock" ]] || { echo "xmltad never bound $sock"; exit 1; }
# register prints `FILE HANDLE`; typecheck registers + checks by handle.
xmlta client --socket "$sock" register "$pass_file"
xmlta client --socket "$sock" typecheck "$pass_file" \
    || { echo "passing instance did not typecheck via the server"; exit 1; }
# The binary twin goes over the register_bin frame (handle prefixed `b`).
xmlta client --socket "$sock" register "$smoke/quick.xtb" \
    | grep -q " b" || { echo "binary registration did not yield a b-handle"; exit 1; }
xmlta client --socket "$sock" typecheck "$smoke/quick.xtb" \
    || { echo "binary instance did not typecheck via the server"; exit 1; }
set +e
xmlta client --socket "$sock" typecheck "$fail_file"
rc=$?
set -e
[[ "$rc" -eq 1 ]] || { echo "failing instance: expected exit 1, got $rc"; exit 1; }
# Pipelined client (protocol 2, depth 4): interleaved register/typecheck
# pairs under distinct ids, output identical to the sequential client's.
xmlta client --socket "$sock" typecheck "$pass_file" "$d2" "$d3" > "$smoke/seq.txt" \
    || { echo "sequential client typecheck failed"; exit 1; }
xmlta client --socket "$sock" --pipeline 4 typecheck "$pass_file" "$d2" "$d3" > "$smoke/pipe.txt" \
    || { echo "pipelined client typecheck failed"; exit 1; }
cmp "$smoke/seq.txt" "$smoke/pipe.txt" \
    || { echo "pipelined client output differs from sequential"; exit 1; }
# The failing instance keeps its exit code through the pipeline too.
set +e
xmlta client --socket "$sock" --pipeline 4 typecheck "$fail_file"
rc=$?
set -e
[[ "$rc" -eq 1 ]] || { echo "pipelined failing instance: expected exit 1, got $rc"; exit 1; }
# A delta stream ships whole over the v2 batch_bin op; the server report
# must match the local batch of the same stream.
xmlta client --socket "$sock" batch --out "$smoke/bstream-srv.json" "$smoke/all.xts"
grep -q '"errors":0' "$smoke/bstream-srv.json" \
    || { echo "server batch_bin errored"; exit 1; }

echo "== incremental update smoke (register → edit → update → reused artifacts)"
cat > "$smoke/update.xti" <<'EOF'
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
EOF
# An in-place rule edit ships as a structured delta, not a re-sent
# document: the reply carries a content-derived successor handle and the
# count of compiled components the server reused instead of rebuilding.
xmlta client --socket "$sock" update "$smoke/update.xti" set-rule q x "x x" \
    > "$smoke/update-ok.txt" \
    || { echo "benign edit did not typecheck via update"; exit 1; }
grep -Eq 'components_reused [1-9]' "$smoke/update-ok.txt" \
    || { echo "update reused no compiled components"; cat "$smoke/update-ok.txt"; exit 1; }
# A breaking edit flips the verdict incrementally (exit 1, counterexample).
set +e
xmlta client --socket "$sock" update "$smoke/update.xti" set-rule q x y \
    > "$smoke/update-break.txt"
rc=$?
set -e
[[ "$rc" -eq 1 ]] || { echo "breaking edit: expected exit 1, got $rc"; exit 1; }
grep -q 'counterexample' "$smoke/update-break.txt" \
    || { echo "breaking edit produced no counterexample"; exit 1; }
# A chained breaking edit: the second `update` on one connection edits the
# first reply's handle, so the engine retained from the first update (not a
# fresh build) decides its verdict. Its counterexample must be what a
# one-shot `xmlta typecheck` prints for the same edited source. The
# instance is not RE+, so both paths run the Lemma 14 engine.
sed 's/^  (q, x) -> x$/  (q, x) -> x x/; s/^  (q, y) -> y$/  (q, y) -> z/' \
    "$smoke/update.xti" > "$smoke/update-chained.xti"
set +e
xmlta typecheck "$smoke/update-chained.xti" > "$smoke/update-chained-cli.txt"
rc=$?
set -e
[[ "$rc" -eq 1 ]] || { echo "chained edit source: expected exit 1, got $rc"; exit 1; }
cli_input="$(sed -n 's/.*counterexample input: //p' "$smoke/update-chained-cli.txt")"
cli_image="$(sed -n 's/.*counterexample image: //p' "$smoke/update-chained-cli.txt")"
coproc RAW { xmlta client --socket "$sock" raw; }
raw_roundtrip() {
    echo "$1" >&"${RAW[1]}"
    IFS= read -r reply <&"${RAW[0]}"
}
handle_of() { sed -n 's/.*"handle":"\([^"]*\)".*/\1/p' <<< "$1"; }
set_rule() {
    echo "{\"kind\":\"set_rule\",\"state\":\"$1\",\"symbol\":\"$2\",\"rhs\":\"$3\"}"
}
raw_roundtrip '{"id":1,"op":"hello","max_v":2}'
raw_roundtrip "{\"id\":2,\"op\":\"register\",\"source\":\"$(awk '{printf "%s\\n", $0}' "$smoke/update.xti")\"}"
raw_roundtrip "{\"id\":3,\"op\":\"update\",\"handle\":\"$(handle_of "$reply")\",\"edit\":$(set_rule q x 'x x')}"
grep -q '"status":"typechecks"' <<< "$reply" \
    || { echo "chained benign edit did not typecheck: $reply"; exit 1; }
raw_roundtrip "{\"id\":4,\"op\":\"update\",\"handle\":\"$(handle_of "$reply")\",\"edit\":$(set_rule q y z)}"
exec {RAW[1]}>&-
wait "$RAW_PID"
grep -qF "\"status\":\"counterexample\",\"input\":\"$cli_input\",\"output\":\"$cli_image\"" <<< "$reply" \
    || { echo "chained update counterexample differs from xmlta typecheck: $reply"; exit 1; }

echo "== Theorem 20 smoke (NTA/NTA counterexample: one-shot CLI = daemon)"
# A deleting relabeling between tree automata runs the Theorem 20 engine
# (the output automaton is deterministic and complete). The daemon's
# counterexample, over its schema cache, must be byte-identical to the
# one-shot CLI's.
cat > "$smoke/thm20.xti" <<'EOF'
alphabet { r x y s }
input nta {
  states qr qx qy
  final qr
  (qr, r) -> qx*
  (qx, x) -> qy qy
  (qy, y) -> eps
}
output nta {
  states good bad
  final good
  (good, s) -> good*
  (bad, s) -> (good | bad)* bad (good | bad)*
  (good, y) -> eps
  (bad, y) -> (good | bad)+
  (bad, r) -> (good | bad)*
  (bad, x) -> (good | bad)*
}
transducer {
  states q
  initial q
  (q, r) -> s(q)
  (q, x) -> x(q)
  (q, y) -> y
}
EOF
set +e
xmlta typecheck "$smoke/thm20.xti" > "$smoke/thm20-cli.txt"
rc=$?
set -e
[[ "$rc" -eq 1 ]] || { echo "Theorem 20 instance: expected exit 1, got $rc"; exit 1; }
cli_input="$(sed -n 's/.*counterexample input: //p' "$smoke/thm20-cli.txt")"
cli_image="$(sed -n 's/.*counterexample image: //p' "$smoke/thm20-cli.txt")"
[[ -n "$cli_input" && -n "$cli_image" ]] \
    || { echo "Theorem 20 CLI printed no counterexample"; cat "$smoke/thm20-cli.txt"; exit 1; }
coproc RAW { xmlta client --socket "$sock" raw; }
raw_roundtrip '{"id":1,"op":"hello","max_v":2}'
raw_roundtrip "{\"id\":2,\"op\":\"typecheck\",\"source\":\"$(awk '{printf "%s\\n", $0}' "$smoke/thm20.xti")\"}"
exec {RAW[1]}>&-
wait "$RAW_PID"
grep -qF "\"status\":\"counterexample\",\"input\":\"$cli_input\",\"output\":\"$cli_image\"" <<< "$reply" \
    || { echo "daemon Theorem 20 counterexample differs from xmlta typecheck: $reply"; exit 1; }

# The daemon-wide counters saw both updates and the reuse.
xmlta client --socket "$sock" stats > "$smoke/update-stats.json"
grep -Eq '"update_reqs": *[1-9]' "$smoke/update-stats.json" \
    || { echo "stats did not count update requests"; exit 1; }
grep -Eq '"components_reused": *[1-9]' "$smoke/update-stats.json" \
    || { echo "stats did not count reused components"; exit 1; }
xmlta client --socket "$sock" stats
xmlta client --socket "$sock" shutdown > /dev/null
# Clean shutdown: exit 0, no leaked workers, socket file removed.
wait "$daemon" || { echo "xmltad exited nonzero (leaked workers?)"; exit 1; }
daemon=""
[[ ! -e "$sock" ]] || { echo "socket file leaked"; exit 1; }

echo "== xmltad TCP smoke (port 0 + round-trip + clean shutdown)"
# Bind an OS-assigned port; the daemon announces it on stderr.
./target/release/xmltad --tcp 127.0.0.1:0 2> "$smoke/tcp.err" &
daemon=$!
tcp_addr=""
for _ in $(seq 100); do
    tcp_addr="$(sed -n 's/.*listening on tcp //p' "$smoke/tcp.err" | head -n1)"
    [[ -n "$tcp_addr" ]] && break
    sleep 0.1
done
[[ -n "$tcp_addr" ]] || { echo "xmltad never announced its TCP port"; exit 1; }
xmlta client --tcp "$tcp_addr" typecheck "$pass_file" > "$smoke/tcp.txt" \
    || { echo "typecheck over TCP failed"; exit 1; }
# Same verdict lines as the Unix-socket sequential client produced.
cmp <(head -n1 "$smoke/seq.txt") "$smoke/tcp.txt" \
    || { echo "TCP verdict differs from Unix-socket verdict"; exit 1; }
xmlta client --tcp "$tcp_addr" shutdown > /dev/null
wait "$daemon" || { echo "xmltad (tcp) exited nonzero"; exit 1; }
daemon=""

echo "== chaos smoke (fixed-seed fault proxy + resilient pipelined client)"
sock="$smoke/chaos.sock"
proxy_sock="$smoke/chaos-proxy.sock"
./target/release/xmltad --socket "$sock" --read-timeout-ms 150 &
daemon=$!
for _ in $(seq 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
[[ -S "$sock" ]] || { echo "xmltad never bound $sock"; exit 1; }
# The proxy injects torn frames, stalls past the read timeout, chunked
# writes, and scripted disconnects on its first 6 connections (seed 1),
# then runs clean — the retrying client must recover to the exact
# verdicts the direct client sees.
# Launch the binary directly (not via the `xmlta` cargo-run wrapper) so
# $proxy is the actual proxy pid — killing the wrapper leaves the proxy
# orphaned with our stdout pipe held open.
./target/release/xmlta fault-proxy --listen "$proxy_sock" --socket "$sock" \
    --seed 1 --faults 6 --stall-ms 250 2> /dev/null &
proxy=$!
for _ in $(seq 100); do [[ -S "$proxy_sock" ]] && break; sleep 0.1; done
[[ -S "$proxy_sock" ]] || { kill "$proxy" 2>/dev/null; echo "fault proxy never bound"; exit 1; }
xmlta client --socket "$sock" typecheck "$pass_file" "$d2" "$d3" > "$smoke/chaos-direct.txt" \
    || { kill "$proxy" 2>/dev/null; echo "direct run failed"; exit 1; }
xmlta client --socket "$proxy_sock" --retry 8 --timeout-ms 2000 --pipeline 8 \
    typecheck "$pass_file" "$d2" "$d3" > "$smoke/chaos.txt" \
    || { kill "$proxy" 2>/dev/null; echo "resilient client did not recover through faults"; exit 1; }
kill "$proxy" 2>/dev/null || true
wait "$proxy" 2>/dev/null || true
proxy=""
cmp "$smoke/chaos-direct.txt" "$smoke/chaos.txt" \
    || { echo "verdicts under faults differ from the direct run"; exit 1; }
xmlta client --socket "$sock" shutdown > /dev/null
wait "$daemon" || { echo "xmltad (chaos) exited nonzero after fault injection"; exit 1; }
daemon=""
[[ ! -e "$sock" ]] || { echo "chaos socket file leaked"; exit 1; }

echo "== persistent store smoke (prewarm -> restart-warm daemon + verify/gc)"
store="$smoke/store"
# Prewarm ahead of deployment, verify every entry, and list them.
xmlta store --store "$store" prewarm "$smoke/instances" > /dev/null
xmlta store --store "$store" verify > /dev/null \
    || { echo "freshly prewarmed store failed verify"; exit 1; }
xmlta store --store "$store" ls > "$smoke/store-ls.txt"
[[ -s "$smoke/store-ls.txt" ]] || { echo "prewarmed store is empty"; exit 1; }
# A batch against the populated store adopts everything (zero writes) and
# its report is byte-identical to the storeless one.
xmlta batch --threads 1 --store "$store" --out "$smoke/b1-store.json" \
    "$smoke/instances" 2> "$smoke/store-batch.err"
cmp "$smoke/b1.json" "$smoke/b1-store.json" \
    || { echo "store-backed batch changed the report"; exit 1; }
grep -q " 0 write(s) / 0 corrupt" "$smoke/store-batch.err" \
    || { echo "populated store recompiled or read corrupt"; cat "$smoke/store-batch.err"; exit 1; }
# Restart round-trip: a daemon booting on the prewarmed store serves the
# same verdicts and reports adoptions in its stats.
sock="$smoke/store.sock"
./target/release/xmltad --socket "$sock" --store "$store" &
daemon=$!
for _ in $(seq 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
[[ -S "$sock" ]] || { echo "xmltad (store) never bound $sock"; exit 1; }
xmlta client --socket "$sock" typecheck "$pass_file" > "$smoke/store-warm.txt" \
    || { echo "typecheck on a store-backed daemon failed"; exit 1; }
cmp <(head -n1 "$smoke/seq.txt") "$smoke/store-warm.txt" \
    || { echo "store-backed verdict differs from the storeless one"; exit 1; }
if xmlta client --socket "$sock" stats | grep -q '"store_hits":0,'; then
    echo "store-backed daemon adopted nothing"; exit 1
fi
xmlta client --socket "$sock" shutdown > /dev/null
wait "$daemon" || { echo "xmltad (store) exited nonzero"; exit 1; }
daemon=""
# A flipped byte is detected: typecheck falls back to recompiling with an
# unchanged verdict, and verify names the corrupt entry (exit 1).
victim="$(find "$store" -name '*.xta' | head -n1)"
printf 'X' | dd of="$victim" bs=1 seek=20 conv=notrunc status=none
xmlta typecheck --store "$store" "$pass_file" > /dev/null \
    || { echo "a corrupt store entry changed a verdict"; exit 1; }
set +e
xmlta store --store "$store" verify > /dev/null 2>&1
rc=$?
set -e
[[ "$rc" -eq 1 ]] || { echo "verify missed the corrupted entry (exit $rc)"; exit 1; }
# gc to a zero budget empties the store; verify is clean again.
xmlta store --store "$store" gc --max-bytes 0 > /dev/null
xmlta store --store "$store" ls | grep -q "^0 entry(ies), 0 bytes" \
    || { echo "gc --max-bytes 0 left entries behind"; xmlta store --store "$store" ls; exit 1; }
xmlta store --store "$store" verify > /dev/null \
    || { echo "emptied store failed verify"; exit 1; }

echo "== trace smoke (xmltad --trace + pipelined batch_bin + coverage gate)"
trace="$smoke/trace.jsonl"
sock="$smoke/trace.sock"
# A 1024-instance shared-schema fleet packed as one .xts stream — the
# pipelined batch_bin workload the coverage acceptance is defined on.
xmlta gen layered --count 1024 --layers 7 --width 4 --seed 7 \
    --out "$smoke/layered" > "$smoke/layered.txt"
# shellcheck disable=SC2046
xmlta convert $(cat "$smoke/layered.txt") --delta --out "$smoke/layered.xts"
./target/release/xmltad --socket "$sock" --trace "$trace" &
daemon=$!
for _ in $(seq 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
[[ -S "$sock" ]] || { echo "xmltad (trace) never bound $sock"; exit 1; }
# Cold, then warm: the same fleet twice over the v2 batch_bin channel.
# The warm run hits the result memo throughout — if tracing ever fell
# out of the hot path, coverage (below) is where it shows.
xmlta client --socket "$sock" batch --out "$smoke/trace-cold.json" "$smoke/layered.xts"
xmlta client --socket "$sock" batch --out "$smoke/trace-warm.json" "$smoke/layered.xts"
cmp "$smoke/trace-cold.json" "$smoke/trace-warm.json" \
    || { echo "warm batch_bin report differs from the cold one"; exit 1; }
xmlta client --socket "$sock" shutdown > /dev/null
wait "$daemon" || { echo "xmltad (trace) exited nonzero"; exit 1; }
daemon=""
# Every line must parse as a JSON trace event, every span enter must
# balance with an exit under its connection/request id, and ≥90% of the
# traced wall-clock must be attributed to named root spans.
xmlta trace --min-coverage 90 "$trace" \
    || { echo "trace file failed validation or the 90% coverage gate"; exit 1; }

echo "== fleet smoke (2-shard router + kill -9 mid-batch + byte-identical report)"
# A single daemon records the reference report for the 1024-instance
# stream, then a 2-shard router fleet on a shared store serves the same
# stream while both shards are SIGKILLed mid-batch — the supervisor
# must respawn them, the resilient links must replay, and the report
# must come out byte-identical.
sock="$smoke/single.sock"
fleet_store="$smoke/fleet-store"
./target/release/xmltad --socket "$sock" &
daemon=$!
for _ in $(seq 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
[[ -S "$sock" ]] || { echo "xmltad (single) never bound $sock"; exit 1; }
xmlta client --socket "$sock" batch --out "$smoke/fleet-single.json" "$smoke/layered.xts"
xmlta client --socket "$sock" shutdown > /dev/null
wait "$daemon" || { echo "xmltad (single) exited nonzero"; exit 1; }
daemon=""
rsock="$smoke/router.sock"
./target/release/xmlta router --socket "$rsock" --shards 2 --store "$fleet_store" \
    --runtime-dir "$smoke/fleet-rt" 2> "$smoke/router.err" &
daemon=$!
for _ in $(seq 100); do [[ -S "$rsock" ]] && break; sleep 0.1; done
[[ -S "$rsock" ]] || { echo "router never bound $rsock"; exit 1; }
# Start the fleet batch, then SIGKILL each shard while it runs.
xmlta client --socket "$rsock" batch --out "$smoke/fleet-router.json" "$smoke/layered.xts" &
batch_pid=$!
sleep 0.3
sed -n 's/.*shard [0-9]* pid \([0-9]*\).*/\1/p' "$smoke/router.err" | while read -r pid; do
    kill -9 "$pid" 2>/dev/null || true
    sleep 0.1
done
wait "$batch_pid" || { echo "fleet batch did not survive the shard kills"; exit 1; }
cmp "$smoke/fleet-single.json" "$smoke/fleet-router.json" \
    || { echo "fleet report differs from the single-daemon report"; exit 1; }
# The supervisor must have respawned at least one shard.
if xmlta client --socket "$rsock" stats | grep -q '"shard_respawns":0'; then
    echo "shards were killed but shard_respawns stayed 0"; exit 1
fi
xmlta client --socket "$rsock" shutdown > /dev/null
wait "$daemon" || { echo "router exited nonzero (leaked workers or failed drain?)"; exit 1; }
daemon=""
[[ ! -e "$rsock" ]] || { echo "router socket file leaked"; exit 1; }

echo "== router TCP smoke (port 0 + register/typecheck round-trip + clean shutdown)"
# The router serves TCP through the daemon's listener; it announces the
# resolved port on stderr once its fleet is up.
./target/release/xmlta router --tcp 127.0.0.1:0 --runtime-dir "$smoke/fleet-rt-tcp" \
    2> "$smoke/router-tcp.err" &
daemon=$!
tcp_addr=""
for _ in $(seq 200); do
    tcp_addr="$(sed -n 's/.*listening on tcp //p' "$smoke/router-tcp.err" | head -n1)"
    [[ -n "$tcp_addr" ]] && break
    sleep 0.1
done
[[ -n "$tcp_addr" ]] || { echo "router never announced its TCP port"; exit 1; }
# `typecheck` registers the instance, then checks it by handle.
xmlta client --tcp "$tcp_addr" typecheck "$pass_file" > "$smoke/router-tcp.txt" \
    || { echo "typecheck through the router over TCP failed"; exit 1; }
cmp <(head -n1 "$smoke/seq.txt") "$smoke/router-tcp.txt" \
    || { echo "router TCP verdict differs from the Unix-socket daemon verdict"; exit 1; }
xmlta client --tcp "$tcp_addr" shutdown > /dev/null
wait "$daemon" || { echo "router (tcp) exited nonzero"; exit 1; }
daemon=""

echo "== fleet chaos smoke (fixed-seed differential round)"
cargo test --release -q -p xmlta-server --test fleet_chaos fleet_smoke

echo "== quickstart example"
cargo run --release -q -p xmlta-examples --example quickstart > /dev/null

echo "== engine report (lemma14 + kernel series, update refusal guard; scratch output)"
# Exits nonzero when incremental updates do not clearly beat
# from-scratch rechecks; the committed report is left untouched.
cargo run --release -q -p xmlta-bench --bin lemma14_report -- ci --reps 3 \
    --out "$smoke/lemma14.json"

if [[ "${1:-}" == "--bench" ]]; then
    echo "== compile benches"
    cargo bench --no-run -q
    echo "== refresh BENCH_lemma14.json (5 reps/point, median + IQR)"
    cargo run --release -q -p xmlta-bench --bin lemma14_report -- "ci-$(date +%Y%m%d)" --reps 5
fi

echo "CI OK"
