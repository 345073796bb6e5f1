#include "scenario/workload_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/spec.hpp"
#include "util/strings.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {

const AppProfile &
WorkloadSchedule::resolve(const std::string &app)
{
    // fatal() on unknown names; "idle" maps to the built-in profile.
    return workloads::profile(app);
}

void
WorkloadSchedule::add(Seconds time, int core, const std::string &app)
{
    if (!std::isfinite(time) || time < 0.0)
        fatal("WorkloadSchedule: event time %g must be finite and "
              "non-negative", time);
    if (core < 0)
        fatal("WorkloadSchedule: core index %d is negative", core);
    if (app.empty())
        fatal("WorkloadSchedule: empty application name");
    resolve(app); // unknown names fail here, not mid-run

    WorkloadEvent ev;
    ev.time = time;
    ev.core = core;
    ev.app = app;
    // Keep sorted by time; stable so same-time events apply in
    // insertion order.
    const auto it = std::upper_bound(
        _events.begin(), _events.end(), ev,
        [](const WorkloadEvent &a, const WorkloadEvent &b) {
            return a.time < b.time;
        });
    _events.insert(it, std::move(ev));
}

WorkloadSchedule
WorkloadSchedule::parse(const std::string &spec)
{
    WorkloadSchedule sched;
    for (const std::string &event :
         splitFields(spec, ';', "WorkloadSchedule", "event")) {
        const auto f = cutFields(event, {":", ":"}, "WorkloadSchedule",
                                 "TIME:CORE:APP");
        // parseInt range-checks against int: an overflowing index
        // fails here, not wraps onto a valid core.
        const double t = parseOrFatal<double>(f[0], "WorkloadSchedule",
                                              "event time", spec);
        const int core = parseOrFatal<int>(f[1], "WorkloadSchedule",
                                           "core index", spec);
        sched.add(t, core, f[2]);
    }
    return sched;
}

} // namespace fastcap
