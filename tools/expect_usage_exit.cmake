# Runs one pdscli command line and passes only when pdscli refuses it the
# way it must refuse a malformed command line: exit status 2 and the usage
# text on stderr, before any experiment runs.
#
#   cmake -DPDSCLI=<path to pdscli> "-DARGS=<arguments>" -P expect_usage_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PDSCLI}" ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "pdscli ${ARGS}: exit status ${status}, want 2\n${out}${err}")
endif()
if(NOT err MATCHES "usage: pdscli")
  message(FATAL_ERROR "pdscli ${ARGS}: no usage text on stderr\n${err}")
endif()
