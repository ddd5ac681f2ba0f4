# `BIN --help` must print the bench's usage and exit 0 before anything
# is built or run (a bench's report starts with "===", never "usage:").
# Invoked by ctest with -DBIN= (see bench/CMakeLists.txt).
execute_process(
    COMMAND ${BIN} --help
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    TIMEOUT 30)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} --help exited with ${rc}")
endif()
if(NOT out MATCHES "^usage: " OR out MATCHES "===")
    message(FATAL_ERROR "${BIN} --help printed no usage:\n${out}")
endif()
