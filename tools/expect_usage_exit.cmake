# Runs one command line of a tool and passes only when the tool refuses it
# the way it must refuse a malformed command line: exit status 2 and its
# usage text on stderr, before it does any work.
#
#   cmake -DTOOL=<path to the tool> "-DUSAGE=<first words of its usage text>"
#         "-DARGS=<arguments>" -P expect_usage_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit status ${status}, want 2\n${out}${err}")
endif()
string(FIND "${err}" "${USAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${ARGS}: no \"${USAGE}\" on stderr\n${err}")
endif()
