# Run limits through the CLI: a 1 ms deadline and a 1 MiB memory budget
# must each abort a heavyweight UApriori mine mid-run with the matching
# diagnostic on stderr, a nonzero exit and nothing on stdout. This is
# the cooperative cancellation contract end to end (ufim_cli links the
# alloc hooks, so the budget is a real limit).
#
#   cmake -DUFIM_CLI=<path to ufim_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_run_limits_abort.cmake
foreach(var UFIM_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(db "${WORK_DIR}/big.udb")
execute_process(
  COMMAND "${UFIM_CLI}" generate --family quest --n 60000 --seed 11 --out "${db}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ufim_cli generate failed (${rc}): ${err}")
endif()

# Runs `ufim_cli mine <db> --algorithm UApriori --min-esup 0.002 <limit>`
# and requires the abort: nonzero exit, `diagnostic` on stderr, empty
# stdout.
function(expect_abort diagnostic)
  execute_process(
    COMMAND "${UFIM_CLI}" mine "${db}" --algorithm UApriori --min-esup 0.002
            ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(JOIN " " limit ${ARGN})
  if(rc EQUAL 0)
    message(FATAL_ERROR "${limit}: expected the limit to abort the mine")
  endif()
  if(NOT err MATCHES "${diagnostic}")
    message(FATAL_ERROR "${limit}: stderr lacks '${diagnostic}':\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${limit}: stdout is not empty:\n${out}")
  endif()
  message(STATUS "${limit}: aborted with ${diagnostic}")
endfunction()

expect_abort("DeadlineExceeded" --deadline-ms 1)
expect_abort("ResourceExhausted" --memory-budget-mb 1)
