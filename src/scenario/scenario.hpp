/**
 * @file
 * A scenario bundles the two time-varying axes of an experiment: the
 * power-budget schedule (BudgetSchedule) and the dynamic-workload
 * schedule (WorkloadSchedule). The default-constructed scenario is
 * "constant" — no budget changes, no job churn — and experiments run
 * bit-identically to scenario-less ones.
 *
 * Scenarios are named so a sweep can carry them as a grid axis and
 * label CSV rows; `fastcap_sweep --scenario` accepts the inline spec
 * syntax, `--scenario-file` a list of named scenarios.
 */

#ifndef FASTCAP_SCENARIO_SCENARIO_HPP
#define FASTCAP_SCENARIO_SCENARIO_HPP

#include <string>
#include <vector>

#include "scenario/budget_schedule.hpp"
#include "scenario/workload_schedule.hpp"

namespace fastcap {

struct Scenario
{
    std::string name = "constant";
    BudgetSchedule budget;
    WorkloadSchedule workload;
    /**
     * Job-trace source replayed onto the cores during the run: a
     * trace file path, "-" (stdin), or "gen:KIND,key=value,..." for
     * a synthetic generator (see src/trace/). Empty = no trace. The
     * experiment runner opens the source itself, so a Scenario stays
     * a cheap value type that sweeps can copy per run.
     */
    std::string trace;

    /**
     * Parse an inline scenario spec: `|`-separated fields
     *
     *   name=NAME            row label (default "scenario")
     *   budget=SPEC          BudgetSchedule::parse syntax
     *   workload=SPEC        WorkloadSchedule::parse syntax
     *   trace=SPEC           job-trace source (path, '-' or gen:...)
     *
     * e.g. "name=drop|budget=step@0:0.9;step@0.05:0.5". A bare first
     * field (no '=') is taken as the name. fatal() on unknown, empty
     * or repeated fields, or malformed schedules.
     */
    static Scenario parse(const std::string &spec);

    /**
     * Load named scenarios from a file of `name = spec` lines
     * ('#' comments, blank lines ignored). fatal() on duplicate
     * names or malformed lines; every error starts "<path>:<line>:".
     */
    static std::vector<Scenario> loadFile(const std::string &path);
};

} // namespace fastcap

#endif // FASTCAP_SCENARIO_SCENARIO_HPP
