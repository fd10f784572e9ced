# Run epi_trace's dma scenario with --profile, exporting TRACE and CSV, and
# fail unless it exits 0, TRACE parses as a JSON object and CSV is non-empty.
#   cmake -DTOOL=<epi_trace> -DTRACE=<json> -DCSV=<csv> -P expect_trace_export.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(REMOVE "${TRACE}" "${CSV}")
execute_process(COMMAND "${TOOL}" dma --profile "--trace=${TRACE}" "--csv=${CSV}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${TOOL} dma: exit status ${rc}, want 0\n${err}")
endif()
file(READ "${TRACE}" json)
string(JSON type ERROR_VARIABLE json_err TYPE "${json}")
if(json_err OR NOT type STREQUAL "OBJECT")
  message(FATAL_ERROR "${TRACE} is not a JSON object: ${json_err}")
endif()
file(SIZE "${CSV}" csv_bytes)
if(csv_bytes EQUAL 0)
  message(FATAL_ERROR "${CSV} is empty")
endif()
