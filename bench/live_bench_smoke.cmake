# The bench_shard_scaling_smoke test (bench/CMakeLists.txt): runs the live
# bench on 1000 packets and fails unless every baseline series appears once
# with pps, pps_q1, pps_q3 and reps >= 5, each side of every overhead pair
# has at least 15 lines, and `CHECKER --overhead` reads the output (exit 0
# or 1; 2 means it found no pair to gate).
cmake_minimum_required(VERSION 3.19)  # string(JSON)
execute_process(COMMAND ${BENCH} --packets=1000 --json
                RESULT_VARIABLE rc OUTPUT_FILE ${OUT} ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench exit ${rc}\n${err}")
endif()

file(STRINGS ${OUT} rows REGEX "^{")
set(pairs)
foreach(row IN LISTS rows)
  string(JSON series GET "${row}" series)
  math(EXPR "lines_${series}" "${lines_${series}}+0+1")
  set("row_${series}" "${row}")
  if(series MATCHES "^(.*)-(no)?acct$")
    list(APPEND pairs ${CMAKE_MATCH_1})
  endif()
endforeach()

file(STRINGS ${BASELINE} baseline_rows REGEX "^{")
set(num "[0-9.]+")
foreach(row IN LISTS baseline_rows)
  string(JSON series GET "${row}" series)
  if(NOT "${lines_${series}}" EQUAL 1)
    message(FATAL_ERROR "${series}: ${lines_${series}} rows, want 1")
  endif()
  if(NOT row_${series} MATCHES
     "\"pps\":${num},\"pps_q1\":${num},\"pps_q3\":${num},\"reps\":([5-9]|[1-9][0-9]+),")
    message(FATAL_ERROR "${series}: no pps, pps_q1, pps_q3, reps >= 5: "
                        "${row_${series}}")
  endif()
endforeach()

foreach(pair IN LISTS pairs)
  foreach(series "${pair}-acct" "${pair}-noacct")
    if(NOT "${lines_${series}}" GREATER_EQUAL 15)
      message(FATAL_ERROR "${series}: ${lines_${series}} lines, want >= 15")
    endif()
  endforeach()
endforeach()

execute_process(COMMAND ${PYTHON} ${CHECKER} --overhead ${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message(STATUS "checker --overhead exit ${rc}\n${out}${err}")
if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
  message(FATAL_ERROR "the checker could not read the output")
endif()
