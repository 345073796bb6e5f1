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
#include <vector>

#include "core/policy.hpp"
#include "core/solver.hpp"

namespace fastcap {

namespace telemetry {
class Registry;
} // namespace telemetry

/** Instantiate a policy by its report name; fatal() if unknown. */
std::unique_ptr<CappingPolicy> makePolicy(const std::string &name);

/**
 * As above, configuring the solver-backed policies ("FastCap",
 * "CPU-only") with explicit options — socket budgets, the reference
 * per-core implementation, warm-start behaviour. Policies that do not
 * run the FastCap solver ignore the options. FastCap publishes its
 * /solver metrics into `registry` when one is given.
 */
std::unique_ptr<CappingPolicy>
makePolicy(const std::string &name, const SolverOptions &opts,
           telemetry::Registry *registry = nullptr);

/** All policy names known to the registry. */
std::vector<std::string> policyNames();

} // namespace fastcap

#endif // FASTCAP_POLICIES_REGISTRY_HPP
