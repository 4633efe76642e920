# Malformed netcache_sim flags, invoked by CTest as:
#   cmake -DSIM=<netcache_sim> -DWORK_DIR=<dir> -P flag_errors_test.cmake
#
# 1. A malformed --offered must stop `rack` before any simulation: exit 2
#    and no --metrics-out file.
# 2. A negative count must be rejected by name, not wrap to nearly 2^64.
# 3. A zero server, key or core count must stop `rack` and `sweep` the same
#    way, by name, before anything is built (it used to abort on an
#    NC_CHECK). A zero --cache stays a valid run.

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

foreach(command rack sweep)
  foreach(flag servers keys cores)
    file(REMOVE ${metrics})
    execute_process(
      COMMAND ${SIM} ${command} --${flag}=0 --duration=0.01 --metrics-out=${metrics}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${command} --${flag}=0 exited ${rc}, expected 2:\n${out}\n${err}")
    endif()
    if(NOT err MATCHES "--${flag}")
      message(FATAL_ERROR "${command} --${flag}=0 did not name the flag:\n${err}")
    endif()
    if(EXISTS ${metrics})
      message(FATAL_ERROR "${command} --${flag}=0 wrote ${metrics} before exiting 2")
    endif()
  endforeach()
endforeach()

execute_process(
  COMMAND ${SIM} rack --cache=0 --servers=2 --keys=1000 --offered=20000 --duration=0.01
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rack --cache=0 exited ${rc}, expected 0:\n${out}\n${err}")
endif()
