#!/usr/bin/env bash
# Throughput benchmark for the simulator.
#
#   scripts/bench.sh [throughput] [OUT.json]
#       End-to-end throughput of the arrival→dispatch→completion hot
#       path: builds the bench crate (with allocation counting) and runs
#       the `throughput` binary over the default Figure-5 workload.
#
# The JSON record goes to stdout and, if an output file is given, to
# that file. The campaign benchmark is perfbench's `quick_campaign`
# workload (`python3 perfbench/run.py --workload quick_campaign`).
#
# Environment:
#   SDA_BENCH_REPS      repetitions, best-of-N (default 5)
#   SDA_BASELINE_EPS    reference events/sec; adds a "speedup" field.
#                       Defaults to the pre-optimization baseline stored
#                       in the newest committed BENCH_*.json (its
#                       "events_per_sec" at the time), if any.
#
# The committed BENCH_NNNN.json files form the perf trajectory: each PR
# that claims a speedup records the before and after numbers of the
# machine it measured on. See DESIGN.md, "Performance model & hot path".
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "throughput" ]; then
  shift
fi
out="${1:-}"

reps="${SDA_BENCH_REPS:-5}"
baseline="${SDA_BASELINE_EPS:-}"

cargo build --release -p sda-bench --features alloc-count

args=(--reps "$reps")
if [ -n "$baseline" ]; then
  args+=(--baseline-eps "$baseline")
fi

if [ -n "$out" ]; then
  ./target/release/throughput "${args[@]}" | tee "$out"
else
  ./target/release/throughput "${args[@]}"
fi
