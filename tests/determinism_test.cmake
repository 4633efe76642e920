# Determinism regressions, invoked by CTest as:
#   cmake -DSIM=<netcache_sim> -DWORK_DIR=<dir> -P determinism_test.cmake
#
# 1. Runs netcache_sim rack twice with the same seed and asserts the metrics
#    JSON is byte-identical. Invariant checking stays on for both runs: the
#    checkers are read-only, so they must not perturb the simulation. The
#    second run adds --profile-out, so this same byte-diff also proves the
#    profiler (common/profiler.h) never perturbs simulation results.
# 2. Runs netcache_sim sweep once serially and once on 4 worker threads and
#    asserts both stdout and the metrics JSON are byte-identical — the
#    core/sweep.h contract that parallel execution never changes results.
# 3. Runs the rack under the partitioned schedule with --sim-threads=1, =4
#    and =8 and asserts the metrics JSON is byte-identical across all three —
#    the parallel-DES contract that worker count never changes results (the
#    partition's window schedule differs from the one-LP layout of runs a
#    and b in its sim.* counters and event tie-breaking, so the reference
#    here is the 1-thread partitioned run, not determinism_a.json). All runs profile
#    (--profile-out), so multi-threaded span recording is exercised under
#    the byte-identity contract too. The =1 and =8 runs also write
#    --trace-out and the packet-lifecycle trace JSONL must byte-match: the
#    trace ring records from every worker and serializes in canonical
#    (t, stream, seq) order.
# 4. Runs the 8-worker rack again with the LP-ownership sanitizer armed
#    (--lp-checks) and asserts the metrics JSON matches run 3's — the
#    common/lp_ownership.h contract that the sanitizer observes, never
#    perturbs.

# 8 servers so the --sim-threads=8 leg gets 8 real workers (the simulator
# clamps workers to the LP count, and a clamp surfaces as
# sim_threads_effective in the JSON, which would break the byte-diff).
set(FLAGS rack --servers=8 --offered=150000 --duration=0.2 --seed=1234
    --metrics-interval=0.05 --check-invariants=0.02 --write-ratio=0.1)

foreach(run a b)
  if(run STREQUAL "b")
    set(profile_flag --profile-out=${WORK_DIR}/determinism_prof_b.json)
  else()
    set(profile_flag)
  endif()
  execute_process(
    COMMAND ${SIM} ${FLAGS} ${profile_flag}
            --metrics-out=${WORK_DIR}/determinism_${run}.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} exited ${rc}:\n${out}\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/determinism_a.json ${WORK_DIR}/determinism_b.json
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "same-seed runs produced different metrics JSON "
      "(${WORK_DIR}/determinism_a.json vs determinism_b.json)")
endif()

# Parallel sweep vs serial sweep: stdout and JSON byte-identical.
set(SWEEP_FLAGS sweep --zipf=0.9,0.99 --cache=100,400 --reps=2 --seed=77
    --servers=4 --offered=80000 --duration=0.05)

foreach(mode serial threads)
  if(mode STREQUAL "serial")
    set(mode_flag --serial)
  else()
    set(mode_flag --threads=4)
  endif()
  execute_process(
    COMMAND ${SIM} ${SWEEP_FLAGS} ${mode_flag}
            --metrics-out=${WORK_DIR}/sweep_${mode}.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep ${mode} exited ${rc}:\n${out}\n${err}")
  endif()
  file(WRITE ${WORK_DIR}/sweep_${mode}.txt "${out}")
endforeach()

foreach(ext txt json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/sweep_serial.${ext} ${WORK_DIR}/sweep_threads.${ext}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "serial and 4-thread sweeps diverged in .${ext} output "
        "(${WORK_DIR}/sweep_serial.${ext} vs sweep_threads.${ext})")
  endif()
endforeach()

# Parallel DES: 1, 4 and 8 workers over the identical partitioned schedule,
# invariant checkers on, metrics JSON byte-identical. The 1- and 8-worker
# runs also record the packet-lifecycle trace, which must byte-match too.
foreach(nthreads 1 4 8)
  if(nthreads EQUAL 4)
    set(trace_flag)
  else()
    set(trace_flag --trace-out=${WORK_DIR}/determinism_trace_${nthreads}.jsonl)
  endif()
  execute_process(
    COMMAND ${SIM} ${FLAGS} --sim-threads=${nthreads} ${trace_flag}
            --profile-out=${WORK_DIR}/determinism_prof_simthreads_${nthreads}.json
            --metrics-out=${WORK_DIR}/determinism_simthreads_${nthreads}.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--sim-threads=${nthreads} run exited ${rc}:\n${out}\n${err}")
  endif()
endforeach()

foreach(nthreads 4 8)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/determinism_simthreads_1.json
            ${WORK_DIR}/determinism_simthreads_${nthreads}.json
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "--sim-threads=1 and --sim-threads=${nthreads} produced different "
        "metrics JSON (${WORK_DIR}/determinism_simthreads_1.json vs "
        "determinism_simthreads_${nthreads}.json)")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/determinism_trace_1.jsonl
          ${WORK_DIR}/determinism_trace_8.jsonl
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "--sim-threads=1 and --sim-threads=8 produced different trace JSONL: "
      "multi-worker span recording must serialize canonically "
      "(${WORK_DIR}/determinism_trace_1.jsonl vs determinism_trace_8.jsonl)")
endif()

# LP-ownership sanitizer (--lp-checks, common/lp_ownership.h): the runtime
# checks are read-only assertions, so a checked 8-worker run must stay
# byte-identical to the unchecked partitioned runs above — and must pass,
# proving the production node/link/pool paths contain no cross-LP touches.
execute_process(
  COMMAND ${SIM} ${FLAGS} --sim-threads=8 --lp-checks
          --metrics-out=${WORK_DIR}/determinism_lpchecks.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--lp-checks run exited ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/determinism_simthreads_8.json
          ${WORK_DIR}/determinism_lpchecks.json
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "--lp-checks changed the metrics JSON: the ownership sanitizer must "
      "observe, never perturb "
      "(${WORK_DIR}/determinism_simthreads_8.json vs determinism_lpchecks.json)")
endif()
