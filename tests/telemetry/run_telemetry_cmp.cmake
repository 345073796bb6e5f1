# Telemetry observe-only gate, process level: the sim and cluster
# CLIs must print byte-identical result output with and without a
# metrics registry and a tracer attached (--introspect / plus
# --trace-out). Catches any instrumentation that leaks back into the
# simulation — including reads the R8 lint heuristic cannot resolve
# (chained temporaries).
#
# Expected -D variables:
#   SIM      path to the fastcap_sim executable
#   CLUSTER  path to the fastcap_cluster executable
#   OUTDIR   scratch directory

set(sim_common
  --workload MIX1 --policy FastCap --cores 8 --budget 0.6
  --instructions 2e6 --epoch-csv)

foreach(mode off on)
  if(mode STREQUAL "on")
    set(extra --introspect / --trace-out ${OUTDIR}/telemetry_sim.json)
  else()
    set(extra)
  endif()
  execute_process(
    COMMAND ${SIM} ${sim_common} ${extra}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "fastcap_sim (telemetry ${mode}) failed (${rc}):\n${err}")
  endif()
  if(mode STREQUAL "on")
    # The instrumented side must really have been instrumented...
    if(NOT out MATCHES "\n/solver/solves [1-9]")
      message(FATAL_ERROR
        "fastcap_sim --introspect / printed no solver metrics:\n${out}")
    endif()
    if(NOT EXISTS ${OUTDIR}/telemetry_sim.json)
      message(FATAL_ERROR "fastcap_sim --trace-out wrote no trace")
    endif()
    # ...and only the appended "/..." dump lines may differ.
    string(REGEX REPLACE "\n/[^\n]*" "" out "${out}")
  endif()
  file(WRITE ${OUTDIR}/telemetry_sim_${mode}.txt "${out}")
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${OUTDIR}/telemetry_sim_off.txt ${OUTDIR}/telemetry_sim_on.txt
  RESULT_VARIABLE cmp)
if(NOT cmp EQUAL 0)
  message(FATAL_ERROR
    "fastcap_sim output differs with --introspect/--trace-out: the "
    "metrics layer is perturbing results")
endif()

# --compare's uncapped baseline runs without the registry: the dump
# describes the capped run alone.
foreach(mode plain compare)
  if(mode STREQUAL "compare")
    set(extra --compare)
  else()
    set(extra)
  endif()
  execute_process(
    COMMAND ${SIM} ${sim_common} ${extra} --introspect /machine/0/epochs
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fastcap_sim (${mode}) failed (${rc}):\n${err}")
  endif()
  string(REGEX MATCH "\n/machine/0/epochs [0-9]+" epochs_${mode} "${out}")
endforeach()
if(epochs_plain STREQUAL "" OR NOT epochs_plain STREQUAL epochs_compare)
  message(FATAL_ERROR
    "fastcap_sim --compare changed the dump: '${epochs_plain}' alone, "
    "'${epochs_compare}' with the uncapped baseline")
endif()

# Cluster: the instrumented side also steps machines in parallel, so
# one comparison covers both the observe-only and the thread
# determinism contract.
set(cluster_common
  --machines 3 --cores 8 --budget 0.5 --max-epochs 6
  --fail "1@2:4"
  --trace "gen:poisson,rate=150,horizon=0.1,seed=5")

execute_process(
  COMMAND ${CLUSTER} ${cluster_common} --machine-threads 1
    --csv ${OUTDIR}/telemetry_cluster_off.csv
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "fastcap_cluster (telemetry off) failed (${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${CLUSTER} ${cluster_common} --machine-threads 4
    --introspect / --trace-out ${OUTDIR}/telemetry_cluster.json
    --csv ${OUTDIR}/telemetry_cluster_on.csv
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "fastcap_cluster (telemetry on) failed (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "\n/cluster/arbiter/rounds 6")
  message(FATAL_ERROR
    "fastcap_cluster --introspect / printed no arbiter metrics:\n${out}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${OUTDIR}/telemetry_cluster_off.csv
    ${OUTDIR}/telemetry_cluster_on.csv
  RESULT_VARIABLE cmp)
if(NOT cmp EQUAL 0)
  message(FATAL_ERROR
    "fastcap_cluster CSV differs with --introspect/--trace-out: the "
    "metrics layer is perturbing rack results")
endif()
