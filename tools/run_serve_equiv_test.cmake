# ctest driver for the serve/CLI equivalence contract (docs/SERVE.md):
# the payload of every serve `result` must be byte-identical to the
# stdout of the equivalent one-shot CLI invocation.  Serve's pipe mode
# mirrors each payload verbatim to <payload-dir>/<id>.out, so the check
# is a plain file diff — no JSON parsing in the test driver.
#
# Expects: -DPMBIST_CLI=<path> -DCHIP=<chip file> -DPROFILE=<profile file>
#          -DWORK=<scratch directory>

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK}/payloads)

# Inline the chip and profile files into JSON string literals (escape
# order matters: backslashes first).
file(READ ${CHIP} chip_text)
file(READ ${PROFILE} profile_text)
foreach(var chip_text profile_text)
  string(REPLACE "\\" "\\\\" ${var} "${${var}}")
  string(REPLACE "\"" "\\\"" ${var} "${${var}}")
  string(REPLACE "\t" "\\t" ${var} "${${var}}")
  string(REPLACE "\n" "\\n" ${var} "${${var}}")
endforeach()

file(WRITE ${WORK}/requests.ndjson
  "{\"id\":\"cov\",\"kind\":\"campaign\",\"algorithm\":\"MATS\",\"addr_bits\":4,\"samples\":4,\"jobs\":1}\n"
  "{\"id\":\"lint\",\"kind\":\"lint\",\"input\":\"March C\"}\n"
  "{\"id\":\"soc\",\"kind\":\"soc\",\"chip\":\"${chip_text}\",\"jobs\":1}\n"
  "{\"id\":\"field\",\"kind\":\"field\",\"chip\":\"${chip_text}\",\"profile\":\"${profile_text}\",\"jobs\":1}\n"
  "{\"id\":\"lintcert\",\"kind\":\"lint\",\"input\":\"${chip_text}\",\"unit\":\"${CHIP}\",\"certify\":true}\n"
  "{\"id\":\"mem\",\"kind\":\"memtest\",\"backend\":\"sim\",\"size_mb\":1,\"backgrounds\":1,\"jobs\":1}\n"
  "{\"id\":\"covsaf\",\"kind\":\"campaign\",\"algorithm\":\"MATS\",\"addr_bits\":4,\"samples\":4,\"jobs\":1,\"classes\":[\"SAF\"]}\n")

execute_process(
  COMMAND ${PMBIST_CLI} serve --payload-dir ${WORK}/payloads
  INPUT_FILE ${WORK}/requests.ndjson
  OUTPUT_FILE ${WORK}/events.ndjson
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pmbist serve exited ${rc}")
endif()

# The equivalent one-shot invocations (same jobs, default everything
# else).  Reports go to stdout; wall-clock chatter goes to stderr and is
# deliberately dropped — it is not part of the contract.
function(cli_stdout name)
  execute_process(
    COMMAND ${PMBIST_CLI} ${ARGN}
    OUTPUT_FILE ${WORK}/${name}.cli ERROR_VARIABLE ignored RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pmbist ${ARGN} exited ${rc}")
  endif()
endfunction()
cli_stdout(cov coverage MATS --addr-bits 4 --samples 4 --jobs 1)
cli_stdout(lint lint "March C")
cli_stdout(soc soc --chip ${CHIP} --jobs 1)
cli_stdout(field field --chip ${CHIP} --profile ${PROFILE} --jobs 1)
# A chip with --certify runs the scheduling phase: the same schedule and
# report in a serve session and in the CLI.
cli_stdout(lintcert lint ${CHIP} --certify)
cli_stdout(mem memtest --backend sim --size 1M --backgrounds 1 --jobs 1)
cli_stdout(covsaf coverage MATS --fault SAF --addr-bits 4 --samples 4 --jobs 1)

foreach(pair "cov" "lint" "soc" "field" "lintcert" "mem" "covsaf")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK}/payloads/${pair}.out ${WORK}/${pair}.cli
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "serve '${pair}' payload differs from the one-shot CLI stdout "
            "(${WORK}/payloads/${pair}.out vs ${WORK}/${pair}.cli)")
  endif()
endforeach()
