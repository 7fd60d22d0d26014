# Runs CLI (cgraph_cli or a bench binary) with ARGS and requires a usage error: exit
# code 2 and stderr matching EXPECT.
#   cmake -DCLI=path/to/cgraph_cli "-DARGS=--flag=value ..." -DEXPECT=regex \
#         -P tools/expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "${CLI} ${ARGS}: expected exit code 2, got '${code}'\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${CLI} ${ARGS}: stderr does not match '${EXPECT}'\n${err}")
endif()
