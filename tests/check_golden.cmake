# Golden-output check, run as a ctest:
#
#   cmake -DBIN=<bench> -DGOLDEN=<file> -DOUT=<file> -P check_golden.cmake
#
# Runs BIN with no arguments and fails unless it exits 0 and its
# stdout equals GOLDEN byte for byte. The actual stdout is always
# written to OUT, so a failure can be inspected with `diff GOLDEN OUT`.

execute_process(
    COMMAND "${BIN}"
    OUTPUT_VARIABLE actual
    ERROR_VARIABLE errors
    RESULT_VARIABLE status)
file(WRITE "${OUT}" "${actual}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${status}:\n${errors}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
        "${BIN}: stdout differs from the golden file\n"
        "  diff ${GOLDEN} ${OUT}")
endif()
