#!/usr/bin/env bash
# Full verification sweep: a Release build with the normal test suite, then
# a Debug build with AddressSanitizer/UBSan (-DEPI_SANITIZE=ON) running the
# same suite. Run from the repository root:
#
#     scripts/check.sh [extra ctest args...]

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== Release build =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}"
ctest --test-dir build-release --output-on-failure -j "${JOBS}" "$@"

echo "== Cluster chaos smoke (Release) =="
# One seeded chip-level chaos serve: chip crashes, bridge outages, and
# lost/corrupted notices must all recover (no wedged graphs, zero
# unresolved jobs), and a replay must produce a byte-identical report.
./build-release/tools/epi_fault --chaos-smoke --chips=2x2

echo "== Simulator-performance smoke (Release only) =="
# abl_simperf must only ever run from a Release tree: the binary exits
# non-zero when built without NDEBUG, so a mis-wired build type fails the
# sweep loudly here instead of producing garbage numbers.
./build-release/bench/abl_simperf \
    --benchmark_filter=BM_EngineEventThroughput --benchmark_min_time=0.05 \
    --benchmark_out=/dev/null --benchmark_out_format=json

echo "== Sanitized debug build (ASan+UBSan) =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DEPI_SANITIZE=ON
cmake --build build-asan -j "${JOBS}"
# Leak checking stays off: the deadlock-detection tests deliberately abandon
# suspended coroutine frames (the engine does not own them), which LSan
# reports at exit. ASan/UBSan proper remain fully enabled.
ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" "$@"

echo "All checks passed."
