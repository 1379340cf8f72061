# Runs BENCH with the space-separated ARGS and fails unless its output is
# byte-identical to GOLDEN. MODE selects the output compared: "jsonl" (the
# default) adds "--out OUT" and compares that file; "stdout" compares the
# bench's standard output, written to OUT.
#
#   cmake -DBENCH=bin "-DARGS=a b c" [-DMODE=jsonl|stdout] -DOUT=run.out \
#         -DGOLDEN=golden -P golden_compare.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(MODE STREQUAL "stdout")
  execute_process(COMMAND ${BENCH} ${args} OUTPUT_FILE ${OUT}
                  RESULT_VARIABLE status)
else()
  execute_process(COMMAND ${BENCH} ${args} --out ${OUT} OUTPUT_QUIET
                  RESULT_VARIABLE status)
endif()
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
