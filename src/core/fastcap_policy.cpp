#include "core/fastcap_policy.hpp"

#include <cmath>

#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"

namespace fastcap {

namespace {

/** Index of the ladder ratio closest to `ratio` (ratios ascending). */
std::size_t
closestRatioIndex(const std::vector<double> &ratios, double ratio)
{
    std::size_t best = 0;
    double best_d = std::abs(ratios[0] - ratio);
    for (std::size_t i = 1; i < ratios.size(); ++i) {
        const double d = std::abs(ratios[i] - ratio);
        if (d <= best_d) {
            best_d = d;
            best = i;
        }
    }
    return best;
}

} // namespace

PolicyDecision
mapToLadders(const PolicyInputs &inputs, const InnerSolution &sol,
             std::size_t mem_index, int evaluations)
{
    PolicyDecision dec;
    dec.memFreqIdx = mem_index;
    dec.evaluations = evaluations;
    dec.predictedPower = sol.predictedPower;
    dec.budgetSaturated = sol.saturatedLow || !sol.budgetFeasible;
    dec.coreFreqIdx.reserve(inputs.cores.size());
    // Cores often share a ratio (every class at x = 1, say): a core
    // with the previous core's exact ratio takes its level.
    std::size_t level = 0;
    std::uint64_t last = 0;
    for (const double x : sol.coreRatios) {
        if (dec.coreFreqIdx.empty() || doubleBits(x) != last) {
            level = closestRatioIndex(inputs.coreRatios, x);
            last = doubleBits(x);
        }
        dec.coreFreqIdx.push_back(level);
    }
    return dec;
}

PolicyDecision
FastCapPolicy::decide(const PolicyInputs &inputs)
{
    // A warm hit is a hint from an epoch with the same budget; the
    // comparison is exact, mirroring how the scenario engine
    // re-issues bit-identical budgets between steps.
    const bool same_budget =
        _opts.warmStart.valid && inputs.budget == _lastBudget;

    FastCapSolver solver(inputs, _opts);
    SolveResult res = solver.solve();

    // Observe-only hot-path instrumentation: commuting writes keep
    // the counters exact under cluster thread parallelism, and a null
    // registry keeps the uninstrumented cost to one branch.
    if (_registry != nullptr) {
        telemetry::Registry &reg = *_registry;
        reg.counter("/solver/solves").add();
        reg.counter("/solver/evaluations")
            .add(static_cast<std::uint64_t>(res.evaluations));
        reg.counter("/solver/iterations")
            .add(static_cast<std::uint64_t>(res.rootIterations));
        if (same_budget)
            reg.counter("/solver/warm_hits").add();
        reg.gauge("/solver/classes")
            .setMax(static_cast<double>(solver.numClasses()));
    }

    // Remember this epoch's solution as the next epoch's warm start.
    _opts.warmStart.valid = true;
    _opts.warmStart.memIndex = res.memIndex;
    _lastBudget = inputs.budget;

    if (!res.best.budgetFeasible &&
        res.best.predictedPower > inputs.budget * 1.01) {
        // Budget below the floor power of the platform: everything is
        // already pinned at minimum frequency; nothing more to shed.
        warn("FastCap: budget %.1f W below floor power %.1f W; "
             "pinning minimum frequencies",
             inputs.budget, res.best.predictedPower);
    }
    PolicyDecision dec = mapToLadders(inputs, res.best, res.memIndex,
                                      res.evaluations);
    dec.utilisationClamped = res.utilisationClamped;
    return dec;
}

PolicyDecision
CpuOnlyPolicy::decide(const PolicyInputs &inputs)
{
    FastCapSolver solver(inputs, _opts);
    const std::size_t top = inputs.memRatios.size() - 1;
    InnerSolution sol = solver.solveAtMemIndex(top);
    return mapToLadders(inputs, sol, top, solver.evaluations());
}

PolicyDecision
UncappedPolicy::decide(const PolicyInputs &inputs)
{
    PolicyDecision dec;
    dec.memFreqIdx = inputs.memRatios.size() - 1;
    dec.coreFreqIdx.assign(inputs.cores.size(),
                           inputs.coreRatios.size() - 1);
    dec.evaluations = 0;

    // Predicted power at the all-max point, for reporting symmetry.
    Watts p = inputs.staticPower() + inputs.memory.pm;
    for (const CoreModel &c : inputs.cores)
        p += c.pi;
    dec.predictedPower = p;
    return dec;
}

} // namespace fastcap
