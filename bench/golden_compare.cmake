# Runs BENCH with the space-separated ARGS plus "--out OUT" and fails unless
# OUT is byte-identical to GOLDEN.
#
#   cmake -DBENCH=bin "-DARGS=a b c" -DOUT=run.jsonl -DGOLDEN=golden.jsonl \
#         -P golden_compare.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args} --out ${OUT} OUTPUT_QUIET
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
