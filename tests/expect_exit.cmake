# ctest helper: runs a command and passes only if it exits with
# EXPECT_EXIT and its combined stdout/stderr matches EXPECT_OUTPUT.
# WILL_FAIL accepts any nonzero exit and PASS_REGULAR_EXPRESSION ignores
# the exit code; a verdict test needs both pinned.
#
#   cmake -DCOMMAND=<prog>|<arg>|... -DEXPECT_EXIT=<code>
#         -DEXPECT_OUTPUT=<regex> -P expect_exit.cmake
#
# COMMAND separates arguments with '|' (a ';' list does not survive
# add_test).
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got ${rc}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match: ${EXPECT_OUTPUT}")
endif()
