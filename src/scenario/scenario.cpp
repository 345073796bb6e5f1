#include "scenario/scenario.hpp"

#include <utility>

#include "trace/trace_generator.hpp"
#include "util/logging.hpp"
#include "util/spec.hpp"

namespace fastcap {

Scenario
Scenario::parse(const std::string &spec)
{
    std::vector<std::string> fields = splitFields(spec, '|', "Scenario");
    if (fields.empty())
        fatal("Scenario: empty spec");
    // A bare leading field is the name.
    if (fields.front().find('=') == std::string::npos)
        fields.front() = "name=" + fields.front();

    Scenario sc;
    sc.name = "scenario";
    for (const KeyValue &kv : splitKeyValues(fields, "Scenario", spec)) {
        if (kv.key == "name") {
            sc.name = kv.value;
        } else if (kv.key == "budget") {
            sc.budget = BudgetSchedule::parse(kv.value);
        } else if (kv.key == "workload") {
            sc.workload = WorkloadSchedule::parse(kv.value);
        } else if (kv.key == "trace") {
            sc.trace = kv.value;
            // Generator specs are cheap to validate here; files are
            // opened by the run (they may not exist yet at parse
            // time on a driver machine).
            if (sc.trace.rfind("gen:", 0) == 0)
                TraceGenSpec::parse(sc.trace.substr(4));
        } else {
            fatal("Scenario: unknown field '%s' (expected name=, "
                  "budget=, workload= or trace=)", kv.key.c_str());
        }
    }
    return sc;
}

std::vector<Scenario>
Scenario::loadFile(const std::string &path)
{
    std::vector<Scenario> out;
    for (const KeyValue &kv : readKeyValueFile(path, "scenario file")) {
        Scenario sc;
        try {
            sc = parse(kv.value);
        } catch (const FatalError &e) {
            fatal("%s:%d: %s", path.c_str(), kv.line, e.what());
        }
        sc.name = kv.key;
        out.push_back(std::move(sc));
    }
    if (out.empty())
        fatal("Scenario: file '%s' declares no scenarios",
              path.c_str());
    return out;
}

} // namespace fastcap
