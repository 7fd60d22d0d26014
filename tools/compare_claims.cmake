# Runs RUNNER (paper_figures) with ARGS and requires its "claim <id> holds|FAILS" pairs
# to equal the GOLDEN file's lines, in order. Measured values are not compared.
#   cmake -DRUNNER=path/to/paper_figures "-DARGS=--scale-shift=-5" \
#         -DGOLDEN=tests/golden/paper_claims_shift-5.txt -P tools/compare_claims.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${RUNNER}" ${args} RESULT_VARIABLE code OUTPUT_VARIABLE out)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${RUNNER} ${ARGS}: exit code ${code}")
endif()
string(REGEX MATCHALL "claim [^ \n]+ (holds|FAILS)" pairs "${out}")
list(JOIN pairs "\n" got)
file(READ "${GOLDEN}" want)
string(STRIP "${want}" want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "${RUNNER} ${ARGS}: claims differ from ${GOLDEN}\n"
    "--- golden\n${want}\n--- got\n${got}")
endif()
