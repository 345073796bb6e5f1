# Golden-file regression runner: execute a CSV-writing CLI
# (fastcap_sweep, fastcap_cluster) with fixed arguments and
# byte-compare the CSV it writes against the committed reference.
#
#   cmake -DTOOL=<executable> "-DARGS=<arguments>"
#         -DGOLDEN=<reference.csv> -DOUT=<scratch.csv>
#         -P run_golden.cmake
#
# ARGS is one shell-style string (split with separate_arguments
# UNIX_COMMAND); the runner appends `--csv <OUT>`. Every golden test
# is declared in tests/CMakeLists.txt through add_golden_test().
#
# A mismatch means a change altered simulation results. If that is
# intentional (a bugfix or a model change), regenerate the reference
# by running the same command with `--csv <reference.csv>` — the
# failure message prints it — and call the change out in the PR
# description. The outputs do not depend on thread counts, so the
# printed command regenerates the reference as it stands.

foreach(var TOOL ARGS GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: missing -D${var}=...")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")

execute_process(
  COMMAND ${TOOL} ${args} --csv ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} failed (${rc}): ${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
    "golden CSV mismatch: ${OUT} differs from ${GOLDEN}. If the "
    "result change is intentional, regenerate the reference with\n"
    "  ${TOOL} ${ARGS} --csv ${GOLDEN}\n"
    "and justify it in the PR.")
endif()
