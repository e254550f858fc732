# Runs choreo_sim on inputs it must reject and checks the exact exit status:
# 1 (with "no feasible placement") when the workload cannot be placed, 2
# (with the usage text) on a bad flag or flag value. A run killed by a signal
# reports a non-numeric status, so an abort can never pass.
#
#   cmake -DCHOREO_SIM=path/to/choreo_sim -P choreo_sim_exit_codes.cmake

function(expect_exit code pattern)
  execute_process(COMMAND ${CHOREO_SIM} ${ARGN}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  string(JOIN " " flags ${ARGN})
  if(NOT status STREQUAL "${code}")
    message(SEND_ERROR "choreo_sim ${flags}: exit status '${status}', expected ${code}\n${err}")
  elseif(pattern AND NOT err MATCHES "${pattern}")
    message(SEND_ERROR "choreo_sim ${flags}: stderr lacks '${pattern}':\n${err}")
  endif()
endfunction()

set(usage "usage: choreo_sim")

# A good run: the harness itself accepts a clean exit.
expect_exit(0 "" --seed 7)

# The default batch run (seed 1) samples a workload no placement can fit.
expect_exit(1 "no feasible placement: ")
expect_exit(2 "${usage}" --vms 1)
expect_exit(2 "${usage}" --vms -3)
expect_exit(2 "${usage}" --vms abc)
expect_exit(2 "${usage}" --apps 0)
expect_exit(2 "${usage}" --mode session --tenants 0)
expect_exit(2 "${usage}" --mode session --duration-hours -1)
expect_exit(2 "${usage}" --mode agents --loss nan)
expect_exit(2 "${usage}" --mode agents --loss 1.5)
expect_exit(2 "${usage}" --mode nope)
expect_exit(2 "${usage}" --no-such-flag)
