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
  "{\"id\":\"lintcert\",\"kind\":\"lint\",\"input\":\"${chip_text}\",\"unit\":\"${CHIP}\",\"certify\":true}\n")

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
execute_process(
  COMMAND ${PMBIST_CLI} coverage MATS --addr-bits 4 --samples 4 --jobs 1
  OUTPUT_FILE ${WORK}/cov.cli ERROR_VARIABLE ignored RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pmbist coverage exited ${rc}")
endif()
execute_process(
  COMMAND ${PMBIST_CLI} lint "March C"
  OUTPUT_FILE ${WORK}/lint.cli ERROR_VARIABLE ignored RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pmbist lint exited ${rc}")
endif()
execute_process(
  COMMAND ${PMBIST_CLI} soc --chip ${CHIP} --jobs 1
  OUTPUT_FILE ${WORK}/soc.cli ERROR_VARIABLE ignored RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pmbist soc exited ${rc}")
endif()
execute_process(
  COMMAND ${PMBIST_CLI} field --chip ${CHIP} --profile ${PROFILE} --jobs 1
  OUTPUT_FILE ${WORK}/field.cli ERROR_VARIABLE ignored RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pmbist field exited ${rc}")
endif()

# A chip with --certify runs the scheduling phase: one worker inside a
# serve session, all cores in the CLI, the same schedule and report.
execute_process(
  COMMAND ${PMBIST_CLI} lint ${CHIP} --certify
  OUTPUT_FILE ${WORK}/lintcert.cli ERROR_VARIABLE ignored RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pmbist lint --certify exited ${rc}")
endif()

foreach(pair "cov" "lint" "soc" "field" "lintcert")
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
