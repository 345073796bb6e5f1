# Deterministic-telemetry gate for the rack: the full --introspect /
# dump of a sharded-engine rack run must be byte-identical across
# machine-thread counts and repeat runs once the wall-clock /wall/
# subtree is filtered out. Every machine publishes its engine state
# under its own /machine/<i>/ prefix, so no path has two writers.
#
# Expected -D variables:
#   CLUSTER  path to the fastcap_cluster executable
#   OUTDIR   scratch directory

# 128 cores per machine puts each machine on the sharded engine. A
# shedding trace and a fail/restore of machine 3 put what the restored
# machine places and sheds into /trace/*.
set(rack_args
  --machines 8 --cores 128 --budget 0.5 --max-epochs 6 --introspect /
  --trace "gen:flash,rate=40000,horizon=0.05,max-cores=128,flash-start=0.005,flash-duration=0.03,flash-factor=8,seed=3"
  --fail "3@2:4")

set(reference "")
foreach(threads 1 4)
  foreach(rep 1 2 3)
    execute_process(
      COMMAND ${CLUSTER} ${rack_args} --machine-threads ${threads}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "fastcap_cluster (machine-threads ${threads}, run ${rep}) "
        "failed (${rc}):\n${err}")
    endif()
    # Drop the wall-clock subtree: one "/wall/..." line each.
    string(REGEX REPLACE "\n/wall/[^\n]*" "" dump "${out}")
    file(WRITE ${OUTDIR}/rack_introspect_t${threads}_${rep}.txt "${dump}")
    if(reference STREQUAL "")
      set(reference "${dump}")
      if(NOT dump MATCHES "\n/machine/7/engine/shard/1/events ")
        message(FATAL_ERROR
          "rack dump lacks per-machine engine gauges:\n${dump}")
      endif()
      if(NOT dump MATCHES "\n/trace/shed ")
        message(FATAL_ERROR "rack dump lacks /trace/shed:\n${dump}")
      endif()
    elseif(NOT dump STREQUAL reference)
      message(FATAL_ERROR
        "rack --introspect dump (machine-threads ${threads}, run "
        "${rep}) differs from the first run; compare "
        "${OUTDIR}/rack_introspect_t1_1.txt with "
        "${OUTDIR}/rack_introspect_t${threads}_${rep}.txt")
    endif()
  endforeach()
endforeach()
