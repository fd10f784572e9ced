# Run TOOL with ARGS (space-separated) plus --trace=TRACE, and --csv=CSV when
# CSV is given, and fail unless it exits 0, TRACE parses as a JSON object
# holding PROCESSES process_name records (when PROCESSES is given) and CSV
# (when given) is non-empty.
#   cmake -DTOOL=<exe> "-DARGS=<args>" -DTRACE=<json> [-DCSV=<csv>]
#         [-DPROCESSES=<n>] -P expect_trace_export.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
separate_arguments(args UNIX_COMMAND "${ARGS}")
list(APPEND args "--trace=${TRACE}")
file(REMOVE "${TRACE}")
if(DEFINED CSV)
  list(APPEND args "--csv=${CSV}")
  file(REMOVE "${CSV}")
endif()
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit status ${rc}, want 0\n${err}")
endif()
file(READ "${TRACE}" json)
string(JSON type ERROR_VARIABLE json_err TYPE "${json}")
if(json_err OR NOT type STREQUAL "OBJECT")
  message(FATAL_ERROR "${TRACE} is not a JSON object: ${json_err}")
endif()
if(DEFINED PROCESSES)
  string(REGEX MATCHALL "\"name\":\"process_name\"" names "${json}")
  list(LENGTH names n)
  if(NOT n EQUAL PROCESSES)
    message(FATAL_ERROR "${TRACE} has ${n} process_name records, want ${PROCESSES}")
  endif()
endif()
if(DEFINED CSV)
  file(SIZE "${CSV}" csv_bytes)
  if(csv_bytes EQUAL 0)
    message(FATAL_ERROR "${CSV} is empty")
  endif()
endif()
