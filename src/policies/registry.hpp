/**
 * @file
 * Factory for capping policies by name, so benches and examples can
 * be driven by strings ("FastCap", "CPU-only", "Freq-Par", "Eql-Pwr",
 * "Eql-Freq", "MaxBIPS", "Uncapped").
 */

#ifndef FASTCAP_POLICIES_REGISTRY_HPP
#define FASTCAP_POLICIES_REGISTRY_HPP

#include <memory>
#include <string>

#include "core/policy.hpp"
#include "core/solver.hpp"

namespace fastcap {

namespace telemetry {
class Registry;
} // namespace telemetry

/**
 * Instantiate a policy by its report name; fatal() if unknown. The
 * solver-backed policies ("FastCap", "CPU-only") take `opts` — socket
 * budgets, the reference per-core implementation, warm-start
 * behaviour; the others ignore it. FastCap publishes its /solver
 * metrics into `registry` when one is given.
 */
std::unique_ptr<CappingPolicy>
makePolicy(const std::string &name, const SolverOptions &opts = {},
           telemetry::Registry *registry = nullptr);

} // namespace fastcap

#endif // FASTCAP_POLICIES_REGISTRY_HPP
