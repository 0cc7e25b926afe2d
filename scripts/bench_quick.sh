#!/bin/sh
# Quick perf gate: run the engine micro-benchmark and fail if the
# threaded engine's speedup over the reference interpreter regressed
# more than 20% vs the committed baseline (benchmarks/results/BENCH_engine.json).
#
# Usage: scripts/bench_quick.sh
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python benchmarks/bench_engine_speed.py --check
