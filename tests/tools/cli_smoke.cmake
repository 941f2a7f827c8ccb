# Smoke run of the shipped binaries: the quickstart example (when built)
# and the CLI's generate, stats, three mine runs (expected support,
# probabilistic, top-k) and a threaded mine-stream run must each exit 0
# and print something.
#
#   cmake -DUFIM_CLI=<path to ufim_cli> -DWORK_DIR=<scratch dir> \
#         [-DQUICKSTART=<path to example_quickstart>] -P cli_smoke.cmake
foreach(var UFIM_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(db "${WORK_DIR}/quest.udb")

# Runs ARGN and requires exit 0 with non-empty stdout.
function(expect_output)
  list(JOIN ARGN " " cmd)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmd} failed (${rc}): ${err}")
  endif()
  if(out STREQUAL "")
    message(FATAL_ERROR "${cmd} printed nothing")
  endif()
  message(STATUS "ok: ${cmd}")
endfunction()

if(QUICKSTART)
  expect_output("${QUICKSTART}")
endif()
expect_output("${UFIM_CLI}" generate --family quest --n 500 --seed 7
              --out "${db}")
expect_output("${UFIM_CLI}" stats "${db}")
expect_output("${UFIM_CLI}" mine "${db}" --algorithm UApriori --min-esup 0.01
              --top 5)
expect_output("${UFIM_CLI}" mine "${db}" --algorithm DCB --min-sup 0.02
              --pft 0.9 --top 5)
expect_output("${UFIM_CLI}" mine "${db}" --algorithm TopK --k 5)
expect_output("${UFIM_CLI}" mine-stream "${db}" --algorithm UApriori
              --min-esup 0.01 --threads 4 --batch 100)
