#!/usr/bin/env bash
# Campaign-throughput benchmark runner.
#
# Builds the perf binary in release mode, runs the injection benchmarks
# (or any other filter passed as $1), prints the human-readable table to
# stderr, and records the machine-readable results — one JSON object per
# line — to BENCH_campaign.json.
#
#   ./bench.sh                 # inject/ benches -> BENCH_campaign.json
#   ./bench.sh pipeline/       # any other filter, same output file
#
# TFSIM_BENCH_SAMPLES / TFSIM_BENCH_SAMPLE_MS tune the measurement (see
# crates/check/src/bench.rs). The headline number is the ratio of the
# `inject/snapshot-ladder-vs-naive/{naive,ladder}` medians: both run the
# same 25-trial plan, so naive_median_ns / ladder_median_ns is the
# fast-path speedup in trials/sec.
#
# The default filter also records the telemetry-overhead pair:
# `inject/trials-per-sec` (untraced, the zero-overhead contract's pinned
# number) vs `inject/trials-per-sec-traced` (per-trial spans on), both
# over the identical 100-trial plan.
#
# The deep-trace pair extends the telemetry-overhead story:
# `inject/trials-per-sec-deep-traced` runs the identical plan with full
# divergence timelines on (per-unit diverged-set samples on divergent
# check cycles — dense just after injection, every eighth check once
# sparse — from a dedicated incremental fingerprint engine). After
# recording, the default filter gates two ratios from the fresh medians:
# deep-traced must stay within 25% of traced (timelines sample only
# already-divergent cycles, at bounded cadence), and traced must stay
# within 15% of untraced (the longstanding within-noise telemetry
# contract, now enforced where the numbers are produced).
#
# The fast-engine pair rides the same plan:
# `inject/trials-per-sec-pruned` runs it through the fast engine (sites
# the golden run decides — never read again, overwritten before their
# next read, or locked or halted before it — classified on the golden
# replay, the rest simulated on the ladder in the same batch); the
# untraced/pruned median ratio is the fast engine's gain. Each call
# includes the standalone answer replay a campaign pays inside its golden
# pass. `inject/pruner-overhead` runs a 100-site batch the fast engine
# decides entirely without simulating, so its median is the pure
# per-batch analysis cost. Fast-engine records are byte-identical to the
# ladder's (pinned by the equivalence suite).
#
# The distributed pair `inject/distributed-overhead/{in-process,
# two-workers}` runs the same tiny campaign on the 2-thread in-process
# pool and on a coordinator with 2 localhost TCP workers. The
# two-workers/in-process median ratio is the full lease-protocol + wire +
# merge overhead and is gated <= 1.15x: distributing over localhost must
# stay within noise of the thread pool, because task compute dominates.
set -euo pipefail
cd "$(dirname "$0")"

filter="${1:-inject/}"
out=BENCH_campaign.json

cargo run --release --offline -q -p tfsim-bench --bin perf -- "$filter" --json \
  | tee /dev/stderr | grep '^{' > "$out"
echo "wrote $out" >&2

# Overhead gates (only when the run recorded the trio).
median() {
  sed -n "s/^{\"name\":\"$(printf '%s' "$1" | sed 's/\//\\\//g')\",\"median_ns\":\([0-9.]*\).*/\1/p" "$out"
}
untraced=$(median "inject/trials-per-sec")
traced=$(median "inject/trials-per-sec-traced")
deep=$(median "inject/trials-per-sec-deep-traced")
if [ -n "$untraced" ] && [ -n "$traced" ] && [ -n "$deep" ]; then
  awk -v u="$untraced" -v t="$traced" -v d="$deep" 'BEGIN {
    printf "traced/untraced: %.3fx   deep/traced: %.3fx\n", t/u, d/t
    bad = 0
    if (t > 1.15 * u) { print "GATE FAIL: traced exceeds untraced by >15%"; bad = 1 }
    if (d > 1.25 * t) { print "GATE FAIL: deep-traced exceeds traced by >25%"; bad = 1 }
    exit bad
  }' >&2
fi
inproc=$(median "inject/distributed-overhead/in-process")
distrib=$(median "inject/distributed-overhead/two-workers")
if [ -n "$inproc" ] && [ -n "$distrib" ]; then
  awk -v i="$inproc" -v d="$distrib" 'BEGIN {
    printf "two-workers/in-process: %.3fx\n", d/i
    if (d > 1.15 * i) { print "GATE FAIL: distributed exceeds in-process by >15%"; exit 1 }
  }' >&2
fi
