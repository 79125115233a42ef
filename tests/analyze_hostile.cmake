# Feeds tiledqr_analyze traces whose tile coordinates no real factorization
# produces. Each must be rejected with exit status 1 and a descriptive
# "tiledqr_analyze: ..." message: never exit 0 on a bogus DAG, a crash, a
# failed allocation or a sanitizer report.
#
#   cmake -DANALYZE=<path to tiledqr_analyze> -DWORK_DIR=<dir> -P analyze_hostile.cmake

# One kernel slice in the Tracer's Chrome-trace format.
macro(slice var kind task i piv k j)
  set(${var} "{\"ph\":\"X\",\"name\":\"${kind}\",\"tid\":1,\"ts\":${task},\"dur\":1,\
\"args\":{\"task\":${task},\"i\":${i},\"piv\":${piv},\"k\":${k},\"j\":${j}}}")
endmacro()

function(expect_rejected name expected events)
  set(path "${WORK_DIR}/analyze_hostile_${name}.json")
  file(WRITE "${path}" "{\"traceEvents\":[${events}]}\n")
  execute_process(COMMAND "${ANALYZE}" "${path}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(lines "\n${err}")
  if(NOT rc EQUAL 1 OR NOT lines MATCHES "\ntiledqr_analyze: [^\n]*${expected}"
     OR err MATCHES "Sanitizer|runtime error")
    message(FATAL_ERROR "${name}: expected exit 1 and a 'tiledqr_analyze: ...${expected}' "
                        "message; got exit ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "${name}: ${err}")
endfunction()

# A TSQRT whose pivot row is negative: infer_dependencies would index the
# dependency tracker before its first tile.
slice(geqrt GEQRT 0 0 -1 0 -1)
slice(tsqrt TSQRT 1 1 -7 0 -1)
expect_rejected(negative_pivot "pivot row -7" "${geqrt},${tsqrt}")

# A row coordinate of INT_MAX: sizing the grid from it overflows.
slice(huge_row GEQRT 0 2147483647 -1 0 -1)
expect_rejected(int_max_row "tile coordinate 2147483647" "${huge_row}")

# Two slices claiming a 200001 x 200001 grid: a dependency tracker that size
# cannot be allocated.
slice(far0 GEQRT 0 200000 -1 200000 -1)
slice(far1 GEQRT 1 200000 -1 200000 -1)
expect_rejected(huge_grid "tile coordinate 200000" "${far0},${far1}")

# Coordinates below the task count, but a grid no three tasks factor: the
# tracker would still grow with the square of the task count.
slice(sparse0 GEQRT 0 2 -1 2 -1)
slice(sparse1 GEQRT 1 2 -1 2 -1)
slice(sparse2 GEQRT 2 2 -1 2 -1)
expect_rejected(sparse_grid "3 x 3 tile grid" "${sparse0},${sparse1},${sparse2}")
