# Profiling end-to-end smoke, invoked by CTest as:
#   cmake -DSIM=<netcache_sim> -DPYTHON=<python3> -DREPORT=<profile_report.py>
#         -DWORK_DIR=<dir> -P profile_smoke_test.cmake
#
# Runs a tiny rack under the partitioned schedule with --profile-out, then
# checks the emitted Chrome trace with tools/profile_report.py: once in
# --validate mode (structural self-consistency, what CI gates on) and once as
# a full report with --min-attributed, proving the four DES buckets account
# for the workers' wall-clock on a real profile, not just on fixtures. Both
# that report and one of a one-LP profile (--sim-threads=0) must end in a
# limiting-layer verdict.

execute_process(
  COMMAND ${SIM} rack --servers=4 --offered=120000 --duration=0.1 --seed=7
          --sim-threads=2 --write-ratio=0.1
          --profile-out=${WORK_DIR}/profile_smoke.json
          --metrics-out=${WORK_DIR}/profile_smoke_metrics.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profiled rack run exited ${rc}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "profile ")
  message(FATAL_ERROR "stdout never mentioned the profile write:\n${out}")
endif()

execute_process(
  COMMAND ${PYTHON} ${REPORT} --validate ${WORK_DIR}/profile_smoke.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profile_report.py --validate failed (${rc}):\n${out}\n${err}")
endif()

# The barrier-bound pathology means most of the wall-clock is *waiting*, but
# it must still be attributed waiting: execute+barrier+merge+fence >= 85% of
# the recording threads' extents even on this tiny run (the acceptance bar on
# the full fig10f leg is 90%; the smoke run is shorter, so startup cost
# weighs more).
execute_process(
  COMMAND ${PYTHON} ${REPORT} --min-attributed=0.85
          ${WORK_DIR}/profile_smoke.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stall attribution below bar (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "Per-lane wall-clock attribution")
  message(FATAL_ERROR "report missing attribution table:\n${out}")
endif()
# Two workers: the per-worker execute balance follows the table.
if(NOT out MATCHES "worker balance: max/mean execute [0-9.]+ over 2 DES lane\\(s\\)")
  message(FATAL_ERROR "report missing the worker-balance line:\n${out}")
endif()
if(NOT out MATCHES "Events per LP-window")
  message(FATAL_ERROR "report missing events-per-window histogram:\n${out}")
endif()
# A partitioned profile's verdict names one of the five DES buckets.
if(NOT out MATCHES "Limiting layer: (lp_execute|barrier_wait|merge|serial_fence|coordinate) at [0-9.]+% of DES-lane wall-clock")
  message(FATAL_ERROR "report missing the DES limiting-layer verdict:\n${out}")
endif()

# A one-LP profile runs on one DES lane, where execute holds nearly all the
# time; its verdict names the largest nested switch/server/egress stage, or
# the unstaged rest of execute when that is larger, instead.
execute_process(
  COMMAND ${SIM} rack --servers=4 --offered=120000 --duration=0.05 --seed=7
          --profile-out=${WORK_DIR}/profile_smoke_serial.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profiled serial rack run exited ${rc}:\n${out}\n${err}")
endif()
execute_process(
  COMMAND ${PYTHON} ${REPORT} ${WORK_DIR}/profile_smoke_serial.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profile_report.py on the serial profile failed (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "Limiting layer: (switch_[a-z_]+|server_[a-z]+|egress_flush|unstaged) at [0-9.]+% of profiled wall-clock")
  message(FATAL_ERROR "report missing the serial limiting-layer verdict:\n${out}")
endif()
