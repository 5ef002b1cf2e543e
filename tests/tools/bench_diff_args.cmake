# Checks bench_diff's --max-regress grammar end to end: a value that is not
# one finite number >= 0 is a usage error (exit 2), and a valid bound still
# separates a pass (exit 0) from a regression (exit 1). Invoked as a ctest:
#   cmake -DBENCH_DIFF=<binary> -DWORK_DIR=<dir> -P bench_diff_args.cmake
if(NOT DEFINED BENCH_DIFF OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH_DIFF=<binary> -DWORK_DIR=<dir> -P bench_diff_args.cmake")
endif()

# The fresh run is 10% slower than the baseline.
set(baseline "${WORK_DIR}/bench_diff_args_baseline.json")
set(fresh "${WORK_DIR}/bench_diff_args_fresh.json")
file(WRITE "${baseline}"
     "{\"bench\": \"b\", \"cells\": 1, \"jobs\": 1, \"wall_ms\": 100.0, \"speedup\": 1.00}\n")
file(WRITE "${fresh}"
     "{\"bench\": \"b\", \"cells\": 1, \"jobs\": 1, \"wall_ms\": 110.0, \"speedup\": 1.00}\n")

# expect_exit(<code> <stderr substring or ""> <args...>)
function(expect_exit want_rc want_stderr)
  execute_process(COMMAND "${BENCH_DIFF}" "${baseline}" "${fresh}" ${ARGN}
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr_text
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "bench_diff ${ARGN}: exited ${rc}, want ${want_rc}: ${stderr_text}")
  endif()
  if(NOT want_stderr STREQUAL "")
    string(FIND "${stderr_text}" "${want_stderr}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "bench_diff ${ARGN}: stderr lacks \"${want_stderr}\": ${stderr_text}")
    endif()
  endif()
endfunction()

foreach(bad nan NaN inf -inf -0.1 -1 abc 0.2x 1e999)
  expect_exit(2 "bad --max-regress value" --max-regress "${bad}")
  expect_exit(2 "bad --max-regress value" "--max-regress=${bad}")
endforeach()
# An empty or missing value is a usage error too.
expect_exit(2 "bad --max-regress value" "--max-regress=")
expect_exit(2 "usage:" --max-regress)

expect_exit(0 "" --max-regress 0.25)
expect_exit(0 "" --max-regress=0.15)
expect_exit(1 "REGRESSION" --max-regress 0.05)
expect_exit(1 "REGRESSION" --max-regress=0)
expect_exit(0 "")  # Default bound 0.25.
message(STATUS "bench_diff --max-regress: every bad value exits 2")
