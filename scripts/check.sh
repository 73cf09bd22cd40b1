#!/usr/bin/env bash
# CI-style gate: tier-1 (release build + full test suite) plus formatting
# and lints, all with --locked so an unpinned dependency fails loudly
# instead of reaching for the network. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --locked"
cargo build --release --locked

echo "==> cargo test --workspace -q --locked"
cargo test --workspace -q --locked

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets --locked -- -D warnings"
cargo clippy --all-targets --locked -- -D warnings

# The Send+Sync invariant behind the parallel scheduler: no std::rc in the
# kernel or core crates (clippy.toml's disallowed-types) — and the
# hash-consing invariant: no raw TermCell construction outside the interner
# module (clippy.toml's disallowed-methods).
echo "==> cargo clippy -p pumpkin-kernel -p pumpkin-core (no std::rc, no raw cells)"
cargo clippy -p pumpkin-kernel -p pumpkin-core --all-targets --locked -- \
    -D warnings -D clippy::disallowed-types -D clippy::disallowed-methods

# Committed golden traces must satisfy the JSON-lines schema, including
# the versioned `prov` event family (DESIGN.md §11–12).
echo "==> trace lint over tests/golden/*.jsonl"
scripts/trace_lint.sh

# Daemon smoke test: a real pumpkind on a loopback port, driven by the
# real client subcommand, shut down gracefully. Everything is wrapped in
# timeouts so a wedged daemon fails the gate instead of hanging it.
echo "==> pumpkind smoke (serve / client / stats / shutdown over loopback)"
serve_log=$(mktemp)
slow_log=$(mktemp)
# --slow-ms 0 makes every request "slow", so the structured slow log gets
# one serve_slow line per request — asserted (and schema-linted) below.
./target/release/pumpkin serve --listen 127.0.0.1:0 --slow-ms 0 --log "$slow_log" >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^pumpkind listening on //p' "$serve_log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "pumpkind never reported its address" >&2; cat "$serve_log"; exit 1; }
timeout 30 ./target/release/pumpkin client --connect "$addr" ping
timeout 30 ./target/release/pumpkin client --connect "$addr" hello
timeout 120 ./target/release/pumpkin client --connect "$addr" repair-module \
    --swap Old.list New.list --names Old.rev,Old.app,Old.rev_involutive
# Error-code mapping: an unknown method must exit with the dedicated
# unknown_method status (14), not a generic failure.
set +e
timeout 30 ./target/release/pumpkin client --connect "$addr" call frobnicate
rc=$?
set -e
[ "$rc" -eq 14 ] || { echo "client exit code for unknown_method: got $rc, want 14" >&2; exit 1; }

# Observability smoke: a loadgen burst through this daemon, then the
# stats RPC must report non-zero per-method counts with percentiles, the
# Prometheus rendering must carry the counter family, and `pumpkin top`
# must render one frame of the live table.
timeout 300 ./target/release/pumpkin loadgen --connect "$addr" \
    --mode closed --clients 4 --requests 2 --trials 1 --seed 3 >/dev/null
stats_json=$(timeout 30 ./target/release/pumpkin client --connect "$addr" stats --json)
case "$stats_json" in
    *'"schema":"pumpkin-serve-stats/2"'*) ;;
    *) echo "stats: missing schema: $stats_json" >&2; exit 1 ;;
esac
echo "$stats_json" | grep -Eq '"repair(_module)?":\{"count":[1-9]' || {
    echo "stats: no per-method counts after the loadgen burst: $stats_json" >&2; exit 1; }
echo "$stats_json" | grep -q '"p99_ns":' || {
    echo "stats: no percentile fields: $stats_json" >&2; exit 1; }
timeout 30 ./target/release/pumpkin client --connect "$addr" stats --prometheus \
    | grep -q '^pumpkin_requests_total{method=' || {
    echo "stats --prometheus: no counter samples" >&2; exit 1; }
top_out=$(timeout 30 ./target/release/pumpkin top --connect "$addr" --count 1 --interval-ms 100)
case "$top_out" in
    *METHOD*repair*) ;;
    *) echo "pumpkin top rendered no method table: $top_out" >&2; exit 1 ;;
esac
# Lifecycle ids: every reply frame (down to a bare ping) echoes req_id.
ping_host=${addr%:*}; ping_port=${addr##*:}
exec 3<>"/dev/tcp/$ping_host/$ping_port"
printf '{"id":1,"method":"ping"}\n' >&3
IFS= read -r ping_reply <&3
exec 3<&- 3>&-
case "$ping_reply" in
    *'"req_id":'*) ;;
    *) echo "ping reply carries no req_id: $ping_reply" >&2; exit 1 ;;
esac

timeout 30 ./target/release/pumpkin client --connect "$addr" shutdown
wait "$serve_pid" || { echo "pumpkind exited nonzero" >&2; cat "$serve_log"; exit 1; }
# The slow log must have one structured line per request, and those lines
# must satisfy the trace schema (serve_slow is a first-class event kind).
grep -q '"kind":"serve_slow"' "$slow_log" || {
    echo "slow log has no serve_slow lines" >&2; cat "$slow_log"; exit 1; }
grep -q '"queue_wait_ns":' "$slow_log" || {
    echo "slow log lines carry no lifecycle breakdown" >&2; cat "$slow_log"; exit 1; }
scripts/trace_lint.sh "$slow_log"
rm -f "$serve_log" "$slow_log"

echo "==> example: serve_roundtrip (in-process daemon round trip)"
timeout 300 cargo run -q --release --locked --example serve_roundtrip >/dev/null

# Watch-mode smoke: run `pumpkin watch` on a one-constant file, touch the
# constant between its two runs, and assert the second run's incremental
# accounting re-lifted only the touch — everything else (the 13-constant
# swap module) skipped. `skipped >= 11` leaves headroom for work-list
# composition changes without letting "incremental re-runs everything"
# slip through.
echo "==> watch smoke (touch one constant, assert skipped >= 11)"
watch_dir=$(mktemp -d)
watch_pi="$watch_dir/mine.pi"
watch_log="$watch_dir/watch.log"
echo 'Definition Old.mine : nat := O.' >"$watch_pi"
timeout 120 ./target/release/pumpkin watch --max-runs 2 --poll-ms 100 \
    --cache-dir "$watch_dir/cache" "$watch_pi" >"$watch_log" 2>&1 &
watch_pid=$!
for _ in $(seq 1 100); do
    grep -q 'watch: run 1:' "$watch_log" && break
    sleep 0.1
done
grep -q 'watch: run 1:' "$watch_log" || { echo "watch never completed run 1" >&2; cat "$watch_log"; exit 1; }
sleep 0.3 # a fresh mtime, even on coarse filesystem clocks
echo 'Definition Old.mine : nat := S O.' >"$watch_pi"
wait "$watch_pid" || { echo "watch exited nonzero" >&2; cat "$watch_log"; exit 1; }
grep 'watch: incremental:' "$watch_log"
skipped=$(sed -n 's/.*skipped=\([0-9]*\)$/\1/p' "$watch_log" | tail -1)
[ -n "$skipped" ] && [ "$skipped" -ge 11 ] || {
    echo "watch smoke: second run skipped=${skipped:-none}, want >= 11" >&2
    cat "$watch_log"
    exit 1
}
rm -rf "$watch_dir"

# Automatic-search smoke: a known-good module must be accepted by the
# first checked candidate (exit 0, a winner named in the summary); a
# module no candidate can repair (a name collision) must exhaust the
# enumeration, exit with the dedicated auto_exhausted status (23), and
# leave a minimized reproducer on disk via --emit-repro.
echo "==> auto smoke (known-good accepts, known-bad minimizes)"
auto_dir=$(mktemp -d)
echo 'Definition Old.mine : nat := O.' >"$auto_dir/good.pi"
good_out=$(timeout 120 ./target/release/pumpkin auto --names Old.rev,Old.app "$auto_dir/good.pi")
case "$good_out" in
    *'auto: accepted'*) ;;
    *) echo "auto smoke: known-good module was not accepted: $good_out" >&2; exit 1 ;;
esac
{
    echo 'Definition New.check_clash : nat := O.'
    echo 'Definition Old.check_clash : forall (T : Type 1), Old.list T -> Old.list T := fun (T : Type 1) (l : Old.list T) => l.'
} >"$auto_dir/bad.pi"
set +e
timeout 120 ./target/release/pumpkin auto --names Old.rev,Old.app,Old.length \
    --emit-repro "$auto_dir/repro.pi" "$auto_dir/bad.pi" >"$auto_dir/bad.log" 2>&1
rc=$?
set -e
[ "$rc" -eq 23 ] || { echo "auto smoke: known-bad exit code: got $rc, want 23" >&2; cat "$auto_dir/bad.log"; exit 1; }
grep -q 'auto: wrote reproducer (1 of 4 constants)' "$auto_dir/bad.log" || {
    echo "auto smoke: no minimized reproducer reported" >&2; cat "$auto_dir/bad.log"; exit 1; }
grep -q 'Definition Old.check_clash' "$auto_dir/repro.pi" || {
    echo "auto smoke: reproducer does not pin the colliding constant" >&2; cat "$auto_dir/repro.pi"; exit 1; }
rm -rf "$auto_dir"

# Smoke-run the parallel-repair + observability bench rows so scheduler or
# probe regressions surface here, not only in full EXPERIMENTS.md runs,
# plus the service rows: the cross-run lift cache cold vs warm (the guard
# asserts warm is at least 5x faster), the daemon round-trip latency, and
# the PR 6 batch-amortization pair (the guard asserts one repair_batch
# frame over the 13-constant module costs at most 0.8x of 13 individual
# repair RPCs). The run writes a pumpkin-bench/v1 JSON report that the
# guard gates row by row against the most recent committed baseline.
# The scaling_term_size rows join the report for PR 7: the hash-consing +
# NbE-conversion work is gated against a hard in-run ceiling (see
# bench_guard.sh) as well as the committed-baseline comparison. PR 8 adds
# the persist_cache/incremental row: a session-resident incremental
# repair after one touch must cost at most 0.3x of the full warm repair.
# PR 9 threads lifecycle timestamps and per-method histograms through the
# daemon always-on; the shared-row comparison against the PR 8 baseline
# is what bounds that overhead. PR 10 adds the auto_search rows: the
# in-run guard asserts the failure-cache-warmed enumeration costs at most
# 0.5x of the cold one.
echo "==> bench: repair_parallel + trace_overhead + persist_cache + serve + scaling + auto rows → BENCH_pr10.json"
# Absolute path: cargo runs the bench binary with cwd = the package dir.
# Sample size 9: the batch-vs-rpc in-run gate needs a stable median on a
# noisy single-CPU container.
cargo bench -p pumpkin-bench --locked --bench ablation -- \
    --sample-size 9 \
    --filter repair_parallel/jobs=1,trace_overhead,persist_cache,serve_roundtrip,repair_batch,scaling_term_size,auto_search \
    --json "$(pwd)/BENCH_pr10.json"

# Loadgen smoke: a seed-replayable closed-loop run against a self-hosted
# worker-pool daemon; its serve_load/{p50,p95,p99,throughput} rows join
# the same report (the header line of the loadgen output is dropped —
# BENCH_pr10.json already has one). --server-stats adds the daemon's own
# view of the same load (serve_load/server_*), which the guard compares
# against the client-side tail. No --fail-rate here: these rows must stay
# workload-comparable with the committed baseline report.
echo "==> loadgen smoke (closed loop, 16 clients) → serve_load rows"
loadgen_json=$(mktemp)
timeout 300 ./target/release/pumpkin loadgen \
    --mode closed --clients 16 --requests 4 --workers 2 --seed 7 \
    --server-stats --json "$loadgen_json"
tail -n +2 "$loadgen_json" >> BENCH_pr10.json

# A second run mixes in 25% broken modules (repair_auto requests whose
# expected auto_exhausted replies are completions). Only its
# serve_load/auto_* rows join the report: its classic rows would
# duplicate the clean run's ids, and its server-side histograms fold the
# expensive auto requests in with everything else, so neither is
# comparable to the baseline.
echo "==> loadgen smoke (closed loop, 16 clients, 25% broken-module mix) → serve_load/auto rows"
timeout 300 ./target/release/pumpkin loadgen \
    --mode closed --clients 16 --requests 4 --workers 2 --seed 7 \
    --fail-rate 0.25 --json "$loadgen_json"
grep '"id":"serve_load/auto_' "$loadgen_json" >> BENCH_pr10.json
rm -f "$loadgen_json"

echo "==> bench guard (auto baseline)"
scripts/bench_guard.sh BENCH_pr10.json

echo "==> all checks passed"
