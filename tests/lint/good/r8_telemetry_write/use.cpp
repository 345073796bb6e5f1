// fastcap-lint corpus (good unit r8_telemetry_write): result-zone
// instrumentation in the sanctioned direction — write counters into
// the registry the caller passed in (null = off), never read them
// back. A read that provably cannot reach results (here:
// operator-facing only) may carry a telemetry-sink waiver on the
// call statement.
// Not compiled; consumed by `fastcap_lint --self-test`.
// fastcap-lint-zone: src/core/decide.cpp

namespace fastcap {

// A null check plus a commuting write: clean.
void
countSolve(telemetry::Registry *registry)
{
    if (registry == nullptr)
        return;
    telemetry::Counter &solves = registry->counter("/solver/solves");
    solves.add(1);
}

// A waived read: the waiver asserts the value feeds an operator
// surface (a debug log line), not results.
unsigned long
debugSolveCount(telemetry::Registry &registry)
{
    telemetry::Counter &solves = registry.counter("/solver/solves");
    // fastcap-lint: telemetry-sink(debug log line only; value never reaches serialized results)
    return solves.value();
}

} // namespace fastcap
