# Run BENCH with no arguments in the empty directory DIR and fail unless it
# exits 0 and leaves DIR empty: a bench writes no file that no flag names.
#   cmake -DBENCH=<exe> -DDIR=<dir> -P expect_no_files.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BENCH}: exit status ${rc}, want 0\n${err}")
endif()
file(GLOB left LIST_DIRECTORIES true "${DIR}/*")
if(left)
  message(FATAL_ERROR "${BENCH} wrote files no flag named: ${left}")
endif()
