# Kernel-dispatch determinism through the CLI: UApriori forced onto each
# intersection kernel with --kernel, and DCB forced onto each through the
# UFIM_INTERSECT environment variable, must print byte-identical itemset
# listings under auto, scalar, gallop and simd over one generated QUEST
# database. Lines starting with '#' carry wall-clock time and are
# stripped.
#
#   cmake -DUFIM_CLI=<path to ufim_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_kernels_identical.cmake
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

# Runs `ufim_cli mine <db> ARGN` and stores the listing without '#'
# lines; `env` (a KEY=VALUE pair, or "" for none) is set for the run.
function(mine env out_var)
  set(prefix "")
  if(env)
    set(prefix "${CMAKE_COMMAND}" -E env "${env}")
  endif()
  execute_process(
    COMMAND ${prefix} "${UFIM_CLI}" mine "${db}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mine ${ARGN} (${env}) failed (${rc}): ${err}")
  endif()
  string(REGEX REPLACE "(^|\n)#[^\n]*" "\\1" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

foreach(kernel auto scalar gallop simd)
  mine("" uapriori_${kernel} --algorithm UApriori --min-esup 0.01
       --kernel ${kernel})
  mine("UFIM_INTERSECT=${kernel}" dcb_${kernel} --algorithm DCB
       --min-sup 0.02 --pft 0.9)
endforeach()

foreach(algo uapriori dcb)
  if(NOT ${algo}_auto MATCHES "esup=")
    message(FATAL_ERROR "${algo} printed no itemsets:\n${${algo}_auto}")
  endif()
  foreach(kernel scalar gallop simd)
    if(NOT ${algo}_${kernel} STREQUAL ${algo}_auto)
      file(WRITE "${WORK_DIR}/${algo}.auto" "${${algo}_auto}")
      file(WRITE "${WORK_DIR}/${algo}.${kernel}" "${${algo}_${kernel}}")
      message(FATAL_ERROR "${algo}: kernel ${kernel} output differs from auto "
                          "(see ${WORK_DIR}/${algo}.auto and .${kernel})")
    endif()
  endforeach()
  message(STATUS "${algo}: auto, scalar, gallop and simd identical")
endforeach()
