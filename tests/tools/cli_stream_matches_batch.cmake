# Incremental replay through the CLI: `mine-stream` must print exactly
# the itemsets of a one-shot `mine` of the same QUEST database, under
# mid-stream compactions at two policies, interleaved explicit
# compactions (--compact-every, a pure layout change), a batch size that
# leaves a live delta at the end, and 8 threads. Lines starting with '#'
# carry wall-clock time and are stripped; per-batch progress goes to
# stderr. min-esup * batch stays well above 1: below that every observed
# itemset is shard-locally frequent and the SON pool degenerates (see
# the DeltaMiner batch-sizing note).
#
#   cmake -DUFIM_CLI=<path to ufim_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_stream_matches_batch.cmake
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

# Runs `ufim_cli <command> <db> ARGN` and stores stdout without '#' lines.
function(run command out_var)
  execute_process(
    COMMAND "${UFIM_CLI}" ${command} "${db}" --algorithm UApriori
            --min-esup 0.04 ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${command} ${ARGN} failed (${rc}): ${err}")
  endif()
  string(REGEX REPLACE "(^|\n)#[^\n]*" "\\1" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run(mine batch)
if(NOT batch MATCHES "esup=")
  message(FATAL_ERROR "mine printed no itemsets:\n${batch}")
endif()

set(flag_sets
    "--batch 64"
    "--batch 64 --compact-ratio 0"
    "--batch 64 --compact-every 2"
    "--batch 97 --compact-ratio 1000000 --compact-every 1"
    "--batch 97 --compact-ratio 1000000 --threads 8")
set(i 0)
foreach(flags IN LISTS flag_sets)
  separate_arguments(args UNIX_COMMAND "${flags}")
  run(mine-stream stream ${args})
  if(NOT stream STREQUAL batch)
    file(WRITE "${WORK_DIR}/batch.out" "${batch}")
    file(WRITE "${WORK_DIR}/stream${i}.out" "${stream}")
    message(FATAL_ERROR "mine-stream ${flags} differs from mine "
                        "(see ${WORK_DIR}/batch.out and stream${i}.out)")
  endif()
  message(STATUS "mine-stream ${flags}: identical to mine")
  math(EXPR i "${i} + 1")
endforeach()
