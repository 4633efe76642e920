# Malformed netcache_sim flags, invoked by CTest as:
#   cmake -DSIM=<netcache_sim> -DWORK_DIR=<dir> -P flag_errors_test.cmake
#
# 1. A malformed --offered must stop `rack` before any simulation: exit 2
#    and no --metrics-out file.
# 2. A negative count must be rejected by name, not wrap to nearly 2^64.

set(metrics ${WORK_DIR}/flag_errors_metrics.json)
file(REMOVE ${metrics})
execute_process(
  COMMAND ${SIM} rack --offered=abc --duration=0.01 --metrics-out=${metrics}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "rack --offered=abc exited ${rc}, expected 2:\n${out}\n${err}")
endif()
if(EXISTS ${metrics})
  message(FATAL_ERROR "rack --offered=abc wrote ${metrics} before exiting 2")
endif()

execute_process(
  COMMAND ${SIM} rack --servers=-1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "rack --servers=-1 exited ${rc}, expected 2:\n${out}\n${err}")
endif()
if(NOT err MATCHES "--servers")
  message(FATAL_ERROR "rack --servers=-1 did not name the flag:\n${err}")
endif()
