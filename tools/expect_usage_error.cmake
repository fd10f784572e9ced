# Run TOOL with ARGS (space-separated) and fail unless it exits with status
# STATUS and its STREAM names FLAG. The defaults, status 2 and stderr, are
# the contract for a malformed command line.
#   cmake -DTOOL=<exe> "-DARGS=<args>" -DFLAG=<text>
#         [-DSTATUS=<n>] [-DSTREAM=stdout] -P expect_usage_error.cmake
if(NOT DEFINED STATUS)
  set(STATUS 2)
endif()
if(NOT DEFINED STREAM)
  set(STREAM stderr)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rc STREQUAL "${STATUS}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit status ${rc}, want ${STATUS}\n${stderr}")
endif()
string(FIND "${${STREAM}}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${ARGS}: ${STREAM} does not name ${FLAG}:\n${${STREAM}}")
endif()
