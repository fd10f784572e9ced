# Run the sweep BENCH, writing its metrics to OUT, and fail unless it exits 0
# and OUT matches the committed GOLDEN byte for byte: the contract for a
# deterministic simulated-metric sweep.
#   cmake -DBENCH=<exe> -DOUT=<file> -DGOLDEN=<BENCH_x.json> -P expect_golden.cmake
file(REMOVE "${OUT}")
execute_process(COMMAND "${BENCH}" "--metrics=${OUT}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BENCH}: exit status ${rc}, want 0\n${err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE differ)
if(NOT differ STREQUAL "0")
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}; if the change is "
                      "intended, regenerate the baselines with scripts/bench.sh")
endif()
