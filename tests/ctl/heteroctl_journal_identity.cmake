# Output contract of the heteroctl sweeps: a journaled run prints the same
# table and writes the same CSV as an unjournaled one.  Both run the same
# pooled sweep; --journal only attaches a journal to it.
#
# Run as:  cmake -DHETEROCTL=<path-to-heteroctl> -DWORK_DIR=<scratch dir>
#                -P heteroctl_journal_identity.cmake
# (wired into ctest by tests/CMakeLists.txt).  Each run writes a.csv in its
# own directory, so the "csv: a.csv" lines of the two outputs match too.

if(NOT DEFINED HETEROCTL OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DHETEROCTL=<path to heteroctl> -DWORK_DIR=<dir>")
endif()

set(plain_dir "${WORK_DIR}/plain")
set(journaled_dir "${WORK_DIR}/journaled")
file(REMOVE_RECURSE "${plain_dir}" "${journaled_dir}")
file(MAKE_DIRECTORY "${plain_dir}" "${journaled_dir}")

# Runs `heteroctl protocols` in `dir` with any extra flags; stores stdout in
# <out_var> and fails the test on a non-zero exit.
function(run_protocols dir out_var)
  execute_process(COMMAND "${HETEROCTL}" ${ARGN} protocols "<1, 1/2, 1/4>" 600 7 a.csv
    WORKING_DIRECTORY "${dir}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "heteroctl ${ARGN} protocols failed (${code}):\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_protocols("${plain_dir}" plain_out)
run_protocols("${journaled_dir}" journaled_out --journal sweep.journal)

if(NOT EXISTS "${journaled_dir}/sweep.journal")
  message(SEND_ERROR "--journal run wrote no journal")
endif()
if(NOT plain_out STREQUAL journaled_out)
  message(SEND_ERROR "printed output differs with --journal:\n"
                     "--- plain\n${plain_out}\n--- journaled\n${journaled_out}")
endif()
file(READ "${plain_dir}/a.csv" plain_csv)
file(READ "${journaled_dir}/a.csv" journaled_csv)
if(plain_csv STREQUAL "")
  message(SEND_ERROR "plain run wrote an empty a.csv")
endif()
if(NOT plain_csv STREQUAL journaled_csv)
  message(SEND_ERROR "a.csv differs with --journal:\n"
                     "--- plain\n${plain_csv}\n--- journaled\n${journaled_csv}")
endif()
