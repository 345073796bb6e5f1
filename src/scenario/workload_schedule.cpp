#include "scenario/workload_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hpp"
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
    const std::string whole = trimmed(spec);
    if (whole.empty())
        return sched;

    std::stringstream ss(whole);
    std::string part;
    while (std::getline(ss, part, ';')) {
        part = trimmed(part);
        if (part.empty())
            fatal("WorkloadSchedule: empty event in '%s'",
                  spec.c_str());
        const auto c1 = part.find(':');
        const auto c2 = c1 == std::string::npos
                            ? std::string::npos
                            : part.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos)
            fatal("WorkloadSchedule: event '%s' is not of the form "
                  "TIME:CORE:APP", part.c_str());

        const std::string t_str = trimmed(part.substr(0, c1));
        const std::string core_str =
            trimmed(part.substr(c1 + 1, c2 - c1 - 1));
        const std::string app = trimmed(part.substr(c2 + 1));

        // parseInt range-checks against int: an overflowing index
        // fails here, not wraps onto a valid core.
        const double t = parseOrFatal<double>(t_str, "WorkloadSchedule",
                                              "event time", spec);
        const int core = parseOrFatal<int>(core_str, "WorkloadSchedule",
                                           "core index", spec);
        sched.add(t, core, app);
    }
    return sched;
}

} // namespace fastcap
