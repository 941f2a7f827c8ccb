# The dataset loader through the CLI: a sparse item id above kMaxItemId
# and every input form the loader rejects on purpose must make
# `ufim_cli mine` exit with a nonzero code (not a signal such as the
# abort of an uncaught std::bad_alloc) and name the offending line on
# stderr. A valid control file in the same shape must mine cleanly, so
# every failure below is the bad line's doing.
#
#   cmake -DUFIM_CLI=<path to ufim_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_dataset_must_fail.cmake
foreach(var UFIM_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(mine --algorithm UApriori --min-esup 0.1)
set(good_line "0:0.5 1:0.25 2:1")

set(control "${WORK_DIR}/control.udb")
file(WRITE "${control}" "${good_line}\n1:0.5 3:.5\n")
execute_process(
  COMMAND "${UFIM_CLI}" mine "${control}" ${mine}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "control file failed (${rc}): ${err}")
endif()

set(checked 0)
# Writes a file whose second line is `bad_line` and requires
# `ufim_cli mine` on it to exit with a nonzero code and a stderr
# diagnostic naming line 2.
function(must_fail bad_line)
  math(EXPR n "${checked} + 1")
  set(db "${WORK_DIR}/bad${n}.udb")
  file(WRITE "${db}" "${good_line}\n${bad_line}\n")
  execute_process(
    COMMAND "${UFIM_CLI}" mine "${db}" ${mine}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "'${bad_line}': ufim_cli did not exit cleanly (${rc}):\n${err}")
  endif()
  if(rc EQUAL 0)
    message(FATAL_ERROR "'${bad_line}': expected ufim_cli mine to fail")
  endif()
  if(NOT err MATCHES "line 2")
    message(FATAL_ERROR "'${bad_line}': stderr does not name line 2 (exit ${rc}):\n${err}")
  endif()
  set(checked ${n} PARENT_SCOPE)
endfunction()

must_fail("4000000000:0.5 1:0.5")   # sparse id above kMaxItemId
must_fail("16777216:0.5")           # kMaxItemId + 1
must_fail("4294967296:0.25")        # beyond ItemId
must_fail("-1:0.5")                 # signed id
must_fail("+7:0.5")
must_fail("1:+0.5")                 # signed probability
must_fail("1:-0")
must_fail("1:0x1p-1")               # hex float
must_fail("1:inf")
must_fail("1:nan")
must_fail("1:1e-400")               # underflows to zero
must_fail("1:1.5")                  # outside [0,1]
must_fail("1:0.5 1:0.9")            # repeated item
must_fail("1:")                     # malformed unit
must_fail("1:0.5x")
message(STATUS "${checked} malformed dataset lines rejected")
