# Runs a two-cell sweep over mobility.model whose "trace" cell fails at
# build time (it names no trace file) and checks what a failed cell leaves:
# exit status 1 and one JSONL row per cell, in cell order, the markov row
# with its results and the trace row with an "error" member.
#
#   cmake -DRUN=<middlefl_run> -DSCENARIO=<fig6.json> -DDIR=<output dir>
#         -P axes_failed_cell.cmake
file(WRITE ${DIR}/failed_cell_axes.json
  "{\"mobility.model\": [\"markov\", \"trace\"]}\n")
file(REMOVE ${DIR}/failed_cell.jsonl)
execute_process(
  COMMAND ${RUN} --scenario ${SCENARIO}
          --set "{\"sim.total_steps\": 4, \"sim.eval_every\": 2}"
          --axes ${DIR}/failed_cell_axes.json
          --json-summary ${DIR}/failed_cell.jsonl --quiet
  RESULT_VARIABLE status)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'")
endif()
file(STRINGS ${DIR}/failed_cell.jsonl rows)
list(LENGTH rows count)
if(NOT count EQUAL 2)
  message(FATAL_ERROR "expected 2 rows, got ${count}")
endif()
list(GET rows 0 markov)
list(GET rows 1 trace)
if(NOT markov MATCHES "\"final_accuracy\": ?[0-9]" OR
   markov MATCHES "\"error\"")
  message(FATAL_ERROR "cell 0 should hold results: ${markov}")
endif()
if(NOT trace MATCHES "\"error\": ?\"" OR trace MATCHES "\"final_accuracy\"")
  message(FATAL_ERROR "cell 1 should hold an error: ${trace}")
endif()
