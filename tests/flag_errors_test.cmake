# Malformed netcache_sim flags, invoked by CTest as:
#   cmake -DSIM=<netcache_sim> -DWORK_DIR=<dir> -P flag_errors_test.cmake
#
# 1. A malformed --offered must stop `rack` before any simulation: exit 2
#    and no --metrics-out file.
# 2. A negative count must be rejected by name, not wrap to nearly 2^64.
# 3. A zero server, key or core count must stop `rack` and `sweep` the same
#    way, by name, before anything is built (it used to abort on an
#    NC_CHECK). A zero --cache stays a valid run.
# 4. A double flag out of its range stops `rack` and `sweep` the same way:
#    --duration, --offered and --rate must be finite and positive (past the
#    parser, a NaN or negative duration never ends the run and a zero rate
#    aborts on an NC_CHECK), --write-ratio must lie in [0, 1]. So must
#    `saturate`'s --rate, and each value of `sweep`'s --zipf list must be
#    finite.

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

foreach(command rack sweep)
  foreach(arg duration=-1 duration=nan offered=0 offered=-5 rate=0 write-ratio=2)
    string(REGEX REPLACE "=.*" "" flag ${arg})
    file(REMOVE ${metrics})
    execute_process(
      COMMAND ${SIM} ${command} --${arg} --metrics-out=${metrics}
      TIMEOUT 60
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${command} --${arg} exited ${rc}, expected 2:\n${out}\n${err}")
    endif()
    if(NOT err MATCHES "--${flag} must")
      message(FATAL_ERROR "${command} --${arg} did not name the flag:\n${err}")
    endif()
    if(EXISTS ${metrics})
      message(FATAL_ERROR "${command} --${arg} wrote ${metrics} before exiting 2")
    endif()
  endforeach()
endforeach()

execute_process(
  COMMAND ${SIM} sweep --zipf=0.9,nan --duration=0.01
  TIMEOUT 60
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--zipf: 'nan' is not a finite number")
  message(FATAL_ERROR "sweep --zipf=0.9,nan exited ${rc}, expected 2 naming --zipf:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${SIM} saturate --rate=0
  TIMEOUT 60
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--rate must be positive")
  message(FATAL_ERROR "saturate --rate=0 exited ${rc}, expected 2 naming --rate:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${SIM} rack --cache=0 --servers=2 --keys=1000 --offered=20000 --duration=0.01
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rack --cache=0 exited ${rc}, expected 0:\n${out}\n${err}")
endif()
