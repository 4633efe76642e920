# The rack's simulated outcome, pinned. Invoked by CTest as:
#   cmake -DSIM=<netcache_sim> -DWORK_DIR=<dir> -DGOLDEN=<json> -P rack_outcome_test.cmake
#
# Runs netcache_sim rack on one small shape four ways: every node in one
# LP (--sim-threads=0, the run named "serial"), the partitioned schedule on
# 4 workers, skewed writes (the coherence path, with servers shedding) and
# uniform keys (almost every query misses the switch and is served by a
# store). From each metrics
# JSON it keeps sent, completed, sim_time_ns and every `metrics` and
# `timeseries` entry whose name does not start with `sim.`: every counter
# and gauge value, histogram summary and time-series bin of a simulated
# outcome. The `sim.*` entries describe the event schedule (events
# dispatched, queue peak, window sizes), which an engine change may move
# on purpose; nothing else may.
#
# Each run's kept part must equal its entry in GOLDEN. To rewrite GOLDEN
# from a build whose outcome is trusted, add -DREGENERATE=ON.

set(SHAPE rack --servers=8 --keys=20000 --cache=200 --offered=600000
    --duration=0.1 --metrics-interval=0.02 --seed=11)
set(RUNS serial sim_threads_4 skewed_writes uniform)
set(FLAGS_serial)
set(FLAGS_sim_threads_4 --sim-threads=4)
set(FLAGS_skewed_writes --write-ratio=0.1 --skewed-writes)
set(FLAGS_uniform --zipf=0)

# Sets `out_var` to the outcome part of the metrics JSON text `json`.
function(outcome_of json out_var)
  set(result "{}")
  foreach(field sent completed sim_time_ns)
    string(JSON value GET "${json}" ${field})
    string(JSON result SET "${result}" ${field} "${value}")
  endforeach()
  foreach(section metrics timeseries)
    set(kept "{}")
    string(JSON count LENGTH "${json}" ${section})
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON name MEMBER "${json}" ${section} ${i})
      if(name MATCHES "^sim\\.")
        continue()
      endif()
      # A metric keeps its value, or a histogram its summary; a series
      # keeps its bins. Kinds and labels only name the entry.
      string(JSON value ERROR_VARIABLE no_value GET "${json}" ${section} ${name} value)
      if(no_value)
        string(JSON value ERROR_VARIABLE no_bins GET "${json}" ${section} ${name} bins)
      endif()
      if(no_value AND no_bins)
        string(JSON value GET "${json}" ${section} ${name})
        string(JSON value REMOVE "${value}" kind)
        string(JSON value REMOVE "${value}" labels)
      endif()
      string(JSON kept SET "${kept}" ${name} "${value}")
    endforeach()
    string(JSON result SET "${result}" ${section} "${kept}")
  endforeach()
  set(${out_var} "${result}" PARENT_SCOPE)
endfunction()

# Appends to `out_var` the names of the `section` entries that differ
# between the outcomes `got` and `want`, or are missing from either.
function(differing_entries got want section out_var)
  set(names)
  foreach(side got want)
    string(JSON count LENGTH "${${side}}" ${section})
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON name MEMBER "${${side}}" ${section} ${i})
      list(APPEND names ${name})
    endforeach()
  endforeach()
  list(REMOVE_DUPLICATES names)
  set(diffs ${${out_var}})
  foreach(name ${names})
    string(JSON a ERROR_VARIABLE a_err GET "${got}" ${section} ${name})
    string(JSON b ERROR_VARIABLE b_err GET "${want}" ${section} ${name})
    if(a_err OR b_err)
      list(APPEND diffs "${section}.${name} (missing)")
      continue()
    endif()
    string(JSON same EQUAL "${a}" "${b}")
    if(NOT same)
      list(APPEND diffs "${section}.${name}: got ${a}, want ${b}")
    endif()
  endforeach()
  set(${out_var} ${diffs} PARENT_SCOPE)
endfunction()

set(golden "{}")
if(NOT REGENERATE)
  file(READ ${GOLDEN} golden)
endif()

foreach(run ${RUNS})
  set(metrics ${WORK_DIR}/rack_outcome_${run}.json)
  execute_process(
    COMMAND ${SIM} ${SHAPE} ${FLAGS_${run}} --metrics-out=${metrics}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${run} run exited ${rc}:\n${out}\n${err}")
  endif()
  file(READ ${metrics} json)
  outcome_of("${json}" got)
  if(REGENERATE)
    string(JSON golden SET "${golden}" ${run} "${got}")
    continue()
  endif()
  string(JSON want GET "${golden}" ${run})
  string(JSON same EQUAL "${got}" "${want}")
  if(same)
    continue()
  endif()
  set(diffs)
  foreach(field sent completed sim_time_ns)
    string(JSON a GET "${got}" ${field})
    string(JSON b GET "${want}" ${field})
    if(NOT a STREQUAL b)
      list(APPEND diffs "${field}: got ${a}, want ${b}")
    endif()
  endforeach()
  differing_entries("${got}" "${want}" metrics diffs)
  differing_entries("${got}" "${want}" timeseries diffs)
  list(JOIN diffs "\n  " listing)
  message(FATAL_ERROR
      "the ${run} rack run's simulated outcome moved (${metrics} vs ${GOLDEN}):\n"
      "  ${listing}")
endforeach()

if(REGENERATE)
  string(REGEX REPLACE " +\n" "\n" golden "${golden}")
  file(WRITE ${GOLDEN} "${golden}\n")
  message(STATUS "wrote ${GOLDEN}")
endif()
