// fastcap-lint corpus (bad unit r8_telemetry_read): result-zone
// code reading telemetry back. Writes through the registry a caller
// passes in are the sanctioned direction; a metric value entering a
// result-zone expression means instrumentation can change simulation
// results, which the instrumented-vs-uninstrumented byte-identity
// gates forbid.
// Not compiled; consumed by `fastcap_lint --self-test`.
// fastcap-lint-zone: src/core/decide.cpp

namespace fastcap {

// Writing a counter into the registry handed in is fine:
// observe-only in the write direction.
void
countSolve(telemetry::Registry &registry)
{
    telemetry::Counter &solves = registry.counter("/solver/solves");
    solves.add(1);
}

// Reading the counter back into a result-affecting decision is the
// violation R8 exists for.
double
budgetFudge(telemetry::Registry &registry)
{
    telemetry::Counter &solves = registry.counter("/solver/solves");
    return 1.0 + 0.001 * solves.value(); // EXPECT: R8
}

// Gauge reads are no better.
double
lastFreq(telemetry::Registry &registry)
{
    telemetry::Gauge &freq = registry.gauge("/machine/0/core/0/freq");
    freq.set(2.0e9);
    return freq.value(); // EXPECT: R8
}

// Nor is the size of the tree, through a local alias or straight
// through the parameter.
unsigned long
metricCount(telemetry::Registry &registry)
{
    const telemetry::Registry &tree = registry;
    return tree.size(); // EXPECT: R8
}

unsigned long
metricCountDirect(const telemetry::Registry &registry)
{
    return registry.size(); // EXPECT: R8
}

// A process-wide registry is not on the write surface: reaching for
// one instead of the registry handed in is a finding, even to write.
void
countGlobally()
{
    telemetry::Registry &registry = telemetry::global(); // EXPECT: R8
    registry.counter("/solver/solves").add(1);
}

// Nor is a static accessor on the registry class.
void
countThroughStatic()
{
    telemetry::Registry &registry =
        telemetry::Registry::global(); // EXPECT: R8
    registry.counter("/solver/solves").add(1);
}

} // namespace fastcap
