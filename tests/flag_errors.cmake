# A malformed numeric flag, or a run or repeat count outside [1, INT_MAX],
# must end a bench or an example with its own name, the flag error and exit
# status 1, never through std::terminate.
#
#   cmake -DBENCH=<bench_table4_wilcoxon> \
#         -DREPEATS_BENCH=<bench_fig6_scalability> -DEXAMPLE=<estimate_k> \
#         -P tests/flag_errors.cmake

function(expect_flag_error program flag value error)
  get_filename_component(name "${program}" NAME_WE)
  execute_process(COMMAND "${program}" "--${flag}" "${value}"
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr)
  set(message "${name}: ${error}")
  string(FIND "${stderr}" "${message}" at)
  # A signal (std::terminate's abort) reads as text, not as a number.
  if(NOT status STREQUAL "1" OR at EQUAL -1)
    message(FATAL_ERROR "${name} --${flag} ${value}: exit '${status}', "
                        "stderr:\n${stderr}\nexpected exit 1 and: ${message}")
  endif()
endfunction()

expect_flag_error("${BENCH}" runs abc "--runs: expected a number, got 'abc'")
expect_flag_error("${EXAMPLE}" seed two "--seed: expected a number, got 'two'")
# A run count below 1 fills no result table, and one above INT_MAX would
# wrap when narrowed to int.
expect_flag_error("${BENCH}" runs 0 "--runs must be at least 1")
expect_flag_error("${BENCH}" runs 4294967296
                  "--runs must be at most 2147483647")
# Zero repeats time nothing and report 0 s.
expect_flag_error("${REPEATS_BENCH}" repeats 0 "--repeats must be at least 1")
