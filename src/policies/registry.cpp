#include "policies/registry.hpp"

#include "core/fastcap_policy.hpp"
#include "policies/eql_freq.hpp"
#include "policies/eql_pwr.hpp"
#include "policies/freq_par.hpp"
#include "policies/max_bips.hpp"
#include "policies/steepest_drop.hpp"
#include "util/logging.hpp"

namespace fastcap {

std::unique_ptr<CappingPolicy>
makePolicy(const std::string &name, const SolverOptions &opts,
           telemetry::Registry *registry)
{
    if (name == "FastCap")
        return std::make_unique<FastCapPolicy>(opts, registry);
    if (name == "CPU-only")
        return std::make_unique<CpuOnlyPolicy>(opts);
    if (name == "Uncapped")
        return std::make_unique<UncappedPolicy>();
    if (name == "Freq-Par")
        return std::make_unique<FreqParPolicy>();
    if (name == "Eql-Pwr")
        return std::make_unique<EqlPwrPolicy>();
    if (name == "Eql-Freq")
        return std::make_unique<EqlFreqPolicy>();
    if (name == "MaxBIPS")
        return std::make_unique<MaxBipsPolicy>();
    if (name == "Steepest-Drop")
        return std::make_unique<SteepestDropPolicy>();
    fatal("makePolicy: unknown policy '%s'", name.c_str());
}

} // namespace fastcap
