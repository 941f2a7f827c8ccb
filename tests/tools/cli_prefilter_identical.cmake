# The certified-bound contract, end to end through the CLI: for every
# probabilistic family head (DP, DC, MC sampling) under both intersection
# kernel extremes (scalar, simd), `--prefilter bounds` must print
# byte-for-byte the itemset listing of `--prefilter off` over one
# generated QUEST database — the cascade may only skip work, never flip a
# decision. Lines starting with '#' carry wall-clock time and are
# stripped.
#
#   cmake -DUFIM_CLI=<path to ufim_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_prefilter_identical.cmake
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

# Runs `ufim_cli mine <db> ARGN` and stores the listing without '#' lines.
function(mine out_var)
  execute_process(
    COMMAND "${UFIM_CLI}" mine "${db}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mine ${ARGN} failed (${rc}): ${err}")
  endif()
  string(REGEX REPLACE "(^|\n)#[^\n]*" "\\1" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

foreach(algo DPNB DCNB MCSampling)
  foreach(kernel scalar simd)
    set(args --algorithm ${algo} --min-sup 0.02 --pft 0.9 --kernel ${kernel})
    mine(off ${args} --prefilter off)
    mine(bounds ${args} --prefilter bounds)
    if(NOT off MATCHES "esup=")
      message(FATAL_ERROR "${algo}/${kernel} printed no itemsets:\n${off}")
    endif()
    if(NOT bounds STREQUAL off)
      file(WRITE "${WORK_DIR}/${algo}.${kernel}.off" "${off}")
      file(WRITE "${WORK_DIR}/${algo}.${kernel}.bounds" "${bounds}")
      message(FATAL_ERROR "${algo}/${kernel}: --prefilter bounds differs from "
                          "off (see ${WORK_DIR}/${algo}.${kernel}.off and "
                          ".bounds)")
    endif()
    message(STATUS "${algo}/${kernel}: bounds identical to off")
  endforeach()
endforeach()
