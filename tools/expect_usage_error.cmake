# Run TOOL with ARGS (space-separated) and fail unless it exits with status
# 2 and its stderr names FLAG: the contract for a malformed command line.
#   cmake -DTOOL=<exe> "-DARGS=<args>" -DFLAG=<--flag> -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit status ${rc}, want 2\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr does not name ${FLAG}:\n${err}")
endif()
