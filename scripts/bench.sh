#!/usr/bin/env bash
# Regenerate the simulated-metric sweep goldens BENCH_<x>.json at the
# repository root from a Release build. Run from anywhere:
#
#     scripts/bench.sh
#
# The *_bench_golden ctests require each sweep to reproduce its committed
# file byte for byte; re-run this script and commit the new files only when
# a change to simulated behaviour is intended. Host wall-clock is measured by
# perfbench/ (python3 perfbench/run.py), not here.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
SWEEPS=(sched faults cluster_faults shmem dag)

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}" --target "${SWEEPS[@]/#/abl_}"

for x in "${SWEEPS[@]}"; do
  ./build-release/bench/abl_${x} --metrics="BENCH_${x}.json" > /dev/null
  echo "Wrote $(pwd)/BENCH_${x}.json"
done
