#!/usr/bin/env bash
# Full verification sweep: a Release build with the normal test suite, then
# a Debug build with AddressSanitizer/UBSan (-DEPI_SANITIZE=ON) running the
# same suite. Both suites include the *_bench_golden tests, so every
# simulated-metric sweep must reproduce its committed BENCH_<x>.json byte for
# byte in both build modes, and the trace_export_smoke test, so the Perfetto
# export must parse as JSON in both. Both also run layering_check (no
# #include under src/ reaches a higher library layer; its reversed-order
# twin must fail) and the example_* tests (every examples/ program exits 0,
# its result verified). The resident-memory checks
# (MemoryFootprint.EightSystemsCommitNoDramTheyDoNotTouch: eight fresh
# host::Systems must commit well under their 8 x 32 MB of DRAM;
# MemoryArenaDeathTest.SystemTakesNoMachineMemoryFromTheMallocHeap: a
# host::System takes no scratchpad or DRAM bytes from the malloc heap; and
# the soak ServingFootprint.OverloadMaxRssGrowsBoundedPerJob: epi_serve's
# max RSS at 4N overload jobs may exceed its max RSS at N by a stated KB
# per job) run in the Release stage; the sanitized stage reports them as
# skipped, not passed, because ASan's allocator decides resident pages
# there. The Release stage also compiles the host-time sampler
# (scripts/prof/sampler.c) and checks its loop driver and map.py, with
# warnings as errors, so the profiling tools README describes keep
# building. Run from the repository root:
#
#     scripts/check.sh [extra ctest args...]

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== Release build =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}"
cc -O2 -Wall -Wextra -Werror -shared -fPIC -o build-release/sampler.so \
  scripts/prof/sampler.c -ldl
c++ -std=c++20 -fsyntax-only -Wall -Wextra -Werror -Isrc -Iperfbench scripts/prof/loop.cpp
python3 -c 'import ast, sys; ast.parse(open(sys.argv[1]).read())' scripts/prof/map.py
ctest --test-dir build-release --output-on-failure -j "${JOBS}" "$@"

echo "== Sanitized debug build (ASan+UBSan) =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DEPI_SANITIZE=ON
cmake --build build-asan -j "${JOBS}"
# Leak checking stays off: nothing owns a coroutine frame left suspended by
# a deadlock, a run_until window, a killed core or a quarantined group, and
# LSan reports each such frame at exit (the deadlock, eLink run_until,
# watchdog, chaos and failover tests, faults_bench_golden and both plan
# selftests; ROADMAP item 6). ASan/UBSan proper remain fully enabled.
ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" "$@"

echo "All checks passed."
