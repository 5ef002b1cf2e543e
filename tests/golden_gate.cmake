# Runs a bench with fixed arguments and fails unless its stdout matches a
# checked-in golden byte for byte, so a local ctest run catches output drift
# that used to surface only in CI. Invoked as a ctest:
#   cmake -DBENCH=<binary> -DARGS="<space-separated args>" -DGOLDEN=<file>
#         -DOUT=<file> -P golden_gate.cmake
if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN OR NOT DEFINED OUT)
  message(FATAL_ERROR
          "usage: cmake -DBENCH=<binary> -DARGS=<args> -DGOLDEN=<file> -DOUT=<file> "
          "-P golden_gate.cmake")
endif()

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
get_filename_component(bench_name "${BENCH}" NAME)

execute_process(COMMAND "${BENCH}" ${bench_args}
                OUTPUT_FILE "${OUT}"
                ERROR_VARIABLE stderr_text
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${bench_name} ${ARGS} exited ${rc}: ${stderr_text}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
          "${bench_name} ${ARGS}: stdout differs from the golden "
          "(diff -u ${GOLDEN} ${OUT})")
endif()
message(STATUS "${bench_name} ${ARGS}: stdout matches ${GOLDEN}")
