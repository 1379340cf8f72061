# The command-line contract of every tool: --help and -h exit 0 and name
# every flag the tool registers, and a malformed number exits with the
# tool's documented usage code rather than a signal.
#
#   cmake -DCFDS_CLI=bin -DCFDS_CHECK=bin -DCFDS_SERVE=bin -DSOAK_HARNESS=bin \
#         -P cli_check.cmake

function(expect_help bin)
  foreach(help --help -h)
    execute_process(COMMAND ${bin} ${help} RESULT_VARIABLE status
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT status STREQUAL "0")
      message(FATAL_ERROR "${bin} ${help} exited with ${status}: ${err}")
    endif()
    foreach(flag IN LISTS ARGN)
      string(REGEX MATCH "\n  ${flag}[ \n]" found "${out}")
      if(NOT found)
        message(FATAL_ERROR "${bin} ${help} does not name ${flag}:\n${out}")
      endif()
    endforeach()
  endforeach()
endfunction()

function(expect_status expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT status STREQUAL "${expected}")
    list(JOIN ARGN " " command)
    message(FATAL_ERROR "${command} exited with ${status}, not ${expected}")
  endif()
endfunction()

set(service_flags --n --cluster-size --port-base --thop-ms --phi-ms --epochs
    --warmup --seed --loss-p --adaptive --checkpoint)

expect_help(${CFDS_CLI} --nodes --width --height --range --loss --epochs
            --interval-ms --crash-rate --distributed-formation --mobility
            --csv --trace --seed --no-calendar)
expect_status(2 ${CFDS_CLI} --nodes x)
expect_status(2 ${CFDS_CLI} --fault-plan plan.jsonl)

expect_help(${CFDS_CHECK} --nodes --deputies --epochs --perm-max --adaptive
            --checkpoint --checkpoint-interval --no-reduction --quiesce-max
            --t-hop-ms --crashes --recoveries --drops --max-states --max-runs
            --out --plan --quiet --replay)
expect_status(1 ${CFDS_CHECK} --nodes x)
expect_status(1 ${CFDS_CHECK} --epochs -1)
expect_status(1 ${CFDS_CHECK} --t-hop-ms 0)

expect_help(${CFDS_SERVE} --id ${service_flags} --anchor-us --fault-plan
            --status-out)
expect_status(64 ${CFDS_SERVE} --id abc --n 4)
expect_status(64 ${CFDS_SERVE} --n 4)
expect_status(64 ${CFDS_SERVE} --id 4 --n 4)
expect_status(64 ${CFDS_SERVE} --id 0 --n 4 --port-base 70000)

expect_help(${SOAK_HARNESS} --mode ${service_flags} --quiesce --chaos
            --no-faults --out-dir --serve-bin)
expect_status(64 ${SOAK_HARNESS} --n x)
expect_status(64 ${SOAK_HARNESS} --mode fork)
expect_status(64 ${SOAK_HARNESS} --chaos none)
