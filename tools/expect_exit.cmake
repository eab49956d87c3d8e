# Run a command and require one exact exit code — for CLI smoke tests of
# usage errors, where "any non-zero exit" would also accept a crash:
#
#   cmake -DEXPECT=2 -P expect_exit.cmake -- <program> [args...]
set(cmd)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT}: ${cmd}")
endif()
