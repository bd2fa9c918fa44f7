# Golden-output check, run as a ctest:
#
#   cmake -DBIN=<bench> -DARGS="<flags>" -DGOLDEN=<file> -DOUT=<file>
#         -P check_golden.cmake
#
# Runs BIN with ARGS and fails unless it exits 0 and its stdout equals
# GOLDEN byte for byte. The actual stdout is always written to OUT, so
# a failure can be inspected with `diff GOLDEN OUT`.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND "${BIN}" ${args}
    OUTPUT_VARIABLE actual
    ERROR_VARIABLE errors
    RESULT_VARIABLE status)
file(WRITE "${OUT}" "${actual}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}:\n${errors}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
        "${BIN} ${ARGS}: stdout differs from the golden file\n"
        "  diff ${GOLDEN} ${OUT}")
endif()
