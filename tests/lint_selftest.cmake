# Fixture self-test for tools/netcache_lint.py, invoked by CTest as:
#   cmake -DPYTHON=<python3> -DLINT=<netcache_lint.py> -DFIXTURES=<dir>
#         -P lint_selftest.cmake
#
# For every rule, a planted-violation tree must be flagged (exit 1, finding
# tagged with the rule, every planted file named) and its compliant twin must
# pass (exit 0) — so a regression that silently disables a rule, exempts a
# path, or starts flagging the sanctioned idiom fails here. Also covers
# --list-rules and the unknown-rule exit code.

set(RULES
    determinism-rng determinism-clock no-naked-assert include-guards
    no-stdio-logging no-using-namespace metric-naming digest-fast-path
    simd-intrinsics hot-path-alloc)

execute_process(
  COMMAND ${PYTHON} ${LINT} --list-rules
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-rules exited ${rc}:\n${out}\n${err}")
endif()
foreach(rule ${RULES})
  string(FIND "${out}" "${rule}" idx)
  if(idx EQUAL -1)
    message(FATAL_ERROR "--list-rules output is missing ${rule}:\n${out}")
  endif()
endforeach()

execute_process(
  COMMAND ${PYTHON} ${LINT} --only no-such-rule --root ${FIXTURES}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unknown --only rule should exit 2, got ${rc}")
endif()

foreach(rule ${RULES})
  string(REPLACE "-" "_" dir ${rule})

  execute_process(
    COMMAND ${PYTHON} ${LINT} --root ${FIXTURES}/${dir}/bad --only ${rule}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "${rule}: bad fixture should exit 1, got ${rc}:\n${out}\n${err}")
  endif()
  string(FIND "${out}" "[${rule}]" idx)
  if(idx EQUAL -1)
    message(FATAL_ERROR
        "${rule}: bad fixture finding is not tagged [${rule}]:\n${out}")
  endif()
  file(GLOB_RECURSE planted RELATIVE ${FIXTURES}/${dir}/bad ${FIXTURES}/${dir}/bad/*)
  foreach(f ${planted})
    string(FIND "${out}" "${f}:" idx)
    if(idx EQUAL -1)
      message(FATAL_ERROR "${rule}: planted violation ${f} was not flagged:\n${out}")
    endif()
  endforeach()

  execute_process(
    COMMAND ${PYTHON} ${LINT} --root ${FIXTURES}/${dir}/good
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "${rule}: good fixture should pass cleanly, got ${rc}:\n${out}\n${err}")
  endif()
endforeach()
