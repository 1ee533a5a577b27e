#!/usr/bin/env bash
# Tier-1 gate for tfsim. Everything runs --offline: the workspace is
# hermetic (zero external crates), so CI must never touch a registry.
# A build that only works online is a regression.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo clippy --offline --workspace -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> perf smoke (timings non-gating, exit status gating)"
# One minimal sample through the injection benches so the bench binary and
# bench.sh's data source can never bit-rot. Timings from a 1-sample run are
# meaningless and are NOT compared against anything, but a bench binary
# that crashes is a real regression, so its exit status gates.
TFSIM_BENCH_SAMPLES=1 TFSIM_BENCH_SAMPLE_MS=1 \
    cargo run --release --offline -q -p tfsim-bench --bin perf -- inject/

echo "==> engine census smoke (gating)"
# A short campaign through the fast engine (the default) must print the
# byte-identical census of the same campaign on the snapshot ladder: the
# engine is an execution strategy, never an experiment knob. Three start
# points 600 cycles apart with a 1,400-cycle horizon overlap, so both
# engines read views of a shared golden timeline here, and the fast
# engine reads its access answers from its one pass. Timings here are
# non-gating (a 12-trial campaign proves correctness, not speed; the
# end-to-end timing lives in perfbench/).
run_tfsim="cargo run --release --offline -q -p tfsim-bench --bin tfsim-run --"
engine_args="campaign --quick --seed 7 --start-points 3 --trials 12 --monitor 1200 \
    --scale 1 --workloads gzip-like,twolf-like"
$run_tfsim $engine_args --engine ladder > target/ci_census_ladder.txt 2>/dev/null
$run_tfsim $engine_args > target/ci_census_pruned.txt 2>/dev/null
diff target/ci_census_ladder.txt target/ci_census_pruned.txt

echo "==> telemetry report smoke (gating)"
# A tiny traced campaign must produce a JSONL trace that the report
# subcommand can parse, cross-check against its footer, and render.
trace=target/ci_trace.jsonl
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    campaign --quick --seed 7 --start-points 1 --trials 10 --monitor 1500 \
    --scale 1 --workloads gzip-like,twolf-like --trace "$trace" >/dev/null 2>&1
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    report "$trace" > target/ci_report.txt
grep -q "outcome census" target/ci_report.txt

echo "==> deep-trace propagation smoke (gating)"
# A deep-traced campaign streams per-trial divergence timelines into the
# trace; the propagation report must render non-empty chains, the
# residency heatmap, the machine-readable aggregates, and the span
# profiler must account for (>=95% of) the start-point wall time.
deep_trace=target/ci_deep_trace.jsonl
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    campaign --quick --seed 7 --start-points 1 --trials 10 --monitor 1500 \
    --scale 1 --workloads gzip-like,twolf-like --trace "$deep_trace" --deep-trace \
    --profile target/ci_profile.collapsed > target/ci_deep_campaign.txt 2>/dev/null
grep -q "phase coverage: 9[5-9]\|phase coverage: 100" target/ci_deep_campaign.txt
test -s target/ci_profile.collapsed
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    report "$deep_trace" --propagation > target/ci_propagation.txt
grep -q "propagation chains" target/ci_propagation.txt
grep -q "residency heatmap" target/ci_propagation.txt
grep -q '"chains":\[{"chain":\[' target/ci_propagation.txt
# The deep-traced census block must be byte-identical to the untraced one.
cargo run --release --offline -q -p tfsim-bench --bin tfsim-run -- \
    campaign --quick --seed 7 --start-points 1 --trials 10 --monitor 1500 \
    --scale 1 --workloads gzip-like,twolf-like > target/ci_census_shallow.txt 2>/dev/null
census_block() { sed -n '/^outcome census/,/^eligible bits/p' "$1"; }
diff <(census_block target/ci_census_shallow.txt) <(census_block target/ci_deep_campaign.txt)

echo "==> journal resume smoke (gating)"
# A journaled quick campaign, interrupted by truncating the journal
# mid-file, must resume to the byte-identical census of an uninterrupted
# run (torn-tail recovery + completed-task replay + deterministic re-run).
run_tfsim="cargo run --release --offline -q -p tfsim-bench --bin tfsim-run --"
campaign_args="campaign --quick --seed 7 --start-points 2 --trials 8 --monitor 1000 \
    --scale 1 --workloads gzip-like,twolf-like"
journal=target/ci_journal.jsonl
$run_tfsim $campaign_args > target/ci_census_ref.txt 2>/dev/null
$run_tfsim $campaign_args --journal "$journal" > target/ci_census_full.txt 2>/dev/null
diff target/ci_census_ref.txt target/ci_census_full.txt
# Tear the journal mid-file (60% of the bytes, ending inside a line).
size=$(wc -c < "$journal")
head -c $((size * 3 / 5)) "$journal" > "$journal.torn" && mv "$journal.torn" "$journal"
$run_tfsim $campaign_args --journal "$journal" --resume \
    > target/ci_census_resumed.txt 2>/dev/null
diff target/ci_census_ref.txt target/ci_census_resumed.txt

echo "==> distributed execution smoke (gating)"
# A coordinator plus two localhost workers — one chaos-killed after its
# first task — must converge to the byte-identical census of the
# single-process run: the dead worker's lease expires and its task is
# re-granted to the survivor. Then the degraded path: a coordinator whose
# only worker dies exits non-zero with the partial campaign journaled,
# and a --resume completion reproduces the same census.
dist_args="--quick --seed 7 --start-points 2 --trials 8 --monitor 1000 \
    --scale 1 --workloads gzip-like,twolf-like"
$run_tfsim campaign $dist_args > target/ci_census_dist_ref.txt 2>/dev/null
serve_log=target/ci_serve.err
$run_tfsim serve $dist_args --port 0 --lease-ms 1000 --heartbeat-ms 100 \
    --idle-timeout-ms 60000 > target/ci_census_dist.txt 2> "$serve_log" &
serve_pid=$!
port=""
for _ in $(seq 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$serve_log")
    [ -n "$port" ] && break
    sleep 0.1
done
test -n "$port"
$run_tfsim worker --connect "127.0.0.1:$port" --chaos seed=11,kill=n1 \
    2>/dev/null && exit 1 # the chaos-killed worker must exit non-zero
$run_tfsim worker --connect "127.0.0.1:$port" --shard target/ci_shard.jsonl \
    2>/dev/null
wait "$serve_pid"
diff target/ci_census_dist_ref.txt target/ci_census_dist.txt
# Degraded leg: the only worker dies, the coordinator times out incomplete
# (non-zero exit) with the accepted task journaled; --resume finishes.
dist_journal=target/ci_dist_journal.jsonl
rm -f "$dist_journal"
$run_tfsim serve $dist_args --port 0 --lease-ms 500 --heartbeat-ms 100 \
    --idle-timeout-ms 4000 --journal "$dist_journal" \
    >/dev/null 2> "$serve_log" &
serve_pid=$!
port=""
for _ in $(seq 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$serve_log")
    [ -n "$port" ] && break
    sleep 0.1
done
test -n "$port"
$run_tfsim worker --connect "127.0.0.1:$port" --chaos seed=12,kill=n1 \
    2>/dev/null && exit 1
if wait "$serve_pid"; then
    echo "serve must exit non-zero when the campaign is incomplete" >&2
    exit 1
fi
$run_tfsim campaign $dist_args --journal "$dist_journal" --resume \
    > target/ci_census_dist_resumed.txt 2>/dev/null
diff target/ci_census_dist_ref.txt target/ci_census_dist_resumed.txt

echo "==> tier-1 gate passed"
