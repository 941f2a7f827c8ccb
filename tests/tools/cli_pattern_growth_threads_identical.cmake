# Thread-count determinism of the pattern-growth miners through the CLI:
# UFP-growth, UH-Mine and NDUH-Mine mined at --threads 1 and --threads 8
# over one generated QUEST database must print byte-identical itemset
# listings. Lines starting with '#' carry wall-clock time and are
# stripped.
#
#   cmake -DUFIM_CLI=<path to ufim_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_pattern_growth_threads_identical.cmake
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

# Mines `algo` with the task flags in `task` at `threads` and stores the
# listing without '#' lines.
function(mine algo task threads out_var)
  execute_process(
    COMMAND "${UFIM_CLI}" mine "${db}" --algorithm ${algo} ${task}
            --threads ${threads}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${algo} --threads ${threads} failed (${rc}): ${err}")
  endif()
  string(REGEX REPLACE "(^|\n)#[^\n]*" "\\1" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(esup_task --min-esup 0.01)
set(prob_task --min-sup 0.02 --pft 0.5)
foreach(run "UFP-growth;esup_task" "UH-Mine;esup_task" "NDUH-Mine;prob_task")
  list(GET run 0 algo)
  list(GET run 1 task_var)
  mine(${algo} "${${task_var}}" 1 serial)
  mine(${algo} "${${task_var}}" 8 parallel)
  if(NOT serial MATCHES "esup=")
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
