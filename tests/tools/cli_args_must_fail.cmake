# The CLI's strict argument parser: garbage numerics, negative counts,
# unknown or retired flags and invalid flag combinations must each exit
# non-zero with a diagnostic on stderr instead of silently mining with
# defaults. A valid control command over the same generated QUEST
# database must succeed, so every failure below is the flag's doing.
#
#   cmake -DUFIM_CLI=<path to ufim_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_args_must_fail.cmake
foreach(var UFIM_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(db "${WORK_DIR}/quest.udb")
execute_process(
  COMMAND "${UFIM_CLI}" generate --family quest --n 500 --seed 7 --out "${db}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ufim_cli generate failed (${rc}): ${err}")
endif()

execute_process(
  COMMAND "${UFIM_CLI}" mine "${db}" --algorithm UApriori --min-esup 0.01
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "control command failed (${rc}): ${err}")
endif()

set(checked 0)
# Runs `ufim_cli ARGN` and fails the test unless it exits non-zero and
# explains why on stderr.
function(must_fail)
  execute_process(
    COMMAND "${UFIM_CLI}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "expected failure: ufim_cli ${ARGN}")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "no diagnostic on stderr (exit ${rc}): ufim_cli ${ARGN}")
  endif()
  math(EXPR n "${checked} + 1")
  set(checked ${n} PARENT_SCOPE)
endfunction()

set(esup --algorithm UApriori --min-esup 0.01)
must_fail(mine "${db}" ${esup} --threads abc)
# --shards was removed; a leftover use must still fail, as an unknown flag.
must_fail(mine "${db}" ${esup} --shards -1)
must_fail(mine "${db}" ${esup} --thread 4)
must_fail(mine "${db}" --algorithm UApriori --min-esup 0.5x)
must_fail(generate --family quest --n 10x --seed 7 --out "${WORK_DIR}/bad.udb")
must_fail(mine-stream "${db}" ${esup} --batch abc)
must_fail(mine-stream "${db}" ${esup} --batch 0)
must_fail(mine-stream "${db}" ${esup} --compact-ratio 0.5x)
must_fail(mine-stream "${db}" ${esup} --compact-ratio -1)
must_fail(mine-stream "${db}" ${esup} --compact-every -1)
must_fail(mine-stream "${db}" ${esup} --compact-every 2x)
must_fail(mine-stream "${db}" ${esup} --batches 4)
must_fail(mine-stream "${db}" --algorithm DCB --min-esup 0.01)
must_fail(mine "${db}" --algorithm DPNB --min-sup 0.02 --pft 0.9
          --prefilter nonsense)
must_fail(mine "${db}" ${esup} --prefilter bounds)
must_fail(mine "${db}" --algorithm UFP-growth --min-esup 0.01
          --split-budget 0)
must_fail(mine "${db}" ${esup} --deadline-ms abc)
must_fail(mine "${db}" ${esup} --memory-budget-mb -1)
must_fail(mine-stream "${db}" ${esup} --deadline-ms 1x)
message(STATUS "${checked} malformed command lines rejected")
