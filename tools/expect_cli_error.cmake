# Runs the CLI and fails unless it exits with STATUS and its standard
# error matches REGEX. ctest's PASS_REGULAR_EXPRESSION alone ignores
# the exit status, so a crash that printed the right words would pass.
#
#   cmake -DCLI=<pomtlb> -DARGS=<arg|arg|...> -DSTATUS=<n>
#         -DREGEX=<regex> -P expect_cli_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL STATUS)
    message(FATAL_ERROR
        "exit status '${status}', expected ${STATUS}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${REGEX}")
    message(FATAL_ERROR
        "stderr does not match '${REGEX}':\n${err}")
endif()
