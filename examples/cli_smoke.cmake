# Smoke check for one hetsim_cli invocation, run by CTest:
#
#   cmake -DCLI=<hetsim_cli> "-DARGS=run-job|--strategy|all"
#         -DEXPECT_EXIT=0 -DEXPECT_LINES=4 [-DEXPECT_STDERR=<regex>]
#         -P cli_smoke.cmake
#
# ARGS separates the CLI's arguments with '|'. Fails unless the exit code
# is EXPECT_EXIT, stdout holds EXPECT_LINES job summary lines and, when
# given, stderr matches EXPECT_STDERR.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT_EXIT}\n${err}")
endif()
string(REGEX MATCHALL "{\"job\":" lines "${out}")
list(LENGTH lines count)
if(NOT count EQUAL EXPECT_LINES)
  message(FATAL_ERROR
          "${count} summary lines, expected ${EXPECT_LINES}\n${out}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}'\n${err}")
endif()
