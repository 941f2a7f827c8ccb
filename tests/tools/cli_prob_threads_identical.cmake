# Thread-count determinism of the probabilistic miners through the CLI:
# DPB, DCB and MCSampling mined at --threads 1 and --threads 8 over one
# generated QUEST database must print byte-identical itemset listings.
# Lines starting with '#' carry wall-clock time and are stripped.
#
#   cmake -DUFIM_CLI=<path to ufim_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_prob_threads_identical.cmake
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

# Mines `algo` at `threads` and stores the listing without '#' lines.
function(mine algo threads out_var)
  execute_process(
    COMMAND "${UFIM_CLI}" mine "${db}" --algorithm ${algo} --min-sup 0.02
            --pft 0.9 --threads ${threads}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${algo} --threads ${threads} failed (${rc}): ${err}")
  endif()
  string(REGEX REPLACE "(^|\n)#[^\n]*" "\\1" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

foreach(algo DPB DCB MCSampling)
  mine(${algo} 1 serial)
  mine(${algo} 8 parallel)
  if(NOT serial MATCHES "freq_prob=")
    message(FATAL_ERROR "${algo} printed no itemsets:\n${serial}")
  endif()
  if(NOT serial STREQUAL parallel)
    file(WRITE "${WORK_DIR}/${algo}.t1" "${serial}")
    file(WRITE "${WORK_DIR}/${algo}.t8" "${parallel}")
    message(FATAL_ERROR "${algo}: --threads 8 output differs from --threads 1 "
                        "(see ${WORK_DIR}/${algo}.t1 and .t8)")
  endif()
  message(STATUS "${algo}: --threads 1 and 8 identical")
endforeach()
