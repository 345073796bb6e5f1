/**
 * @file
 * Synthetic SPEC 2000/2006-like application profiles and the 16
 * workload mixes of Table III.
 *
 * Each profile is calibrated so its class-level behaviour (MPKI,
 * WPKI, compute CPI, activity) matches the paper's workload classes:
 * ILP (compute-intensive), MID (balanced), MEM (memory-intensive) and
 * MIX. Per-application phase variability produces the time dynamics
 * Figures 4, 7 and 8 exercise. The numbers are synthetic stand-ins —
 * see docs/DESIGN.md section 2 for why this substitution preserves the
 * paper's behaviour.
 */

#ifndef FASTCAP_WORKLOAD_SPEC_TABLE_HPP
#define FASTCAP_WORKLOAD_SPEC_TABLE_HPP

#include <string>
#include <vector>

#include "sim/app_profile.hpp"

namespace fastcap {
namespace workloads {

/** Profile of a named SPEC-like application; fatal() if unknown. */
const AppProfile &spec(const std::string &name);

/**
 * A core with no job: near-zero activity, essentially no memory
 * traffic, and a long compute phase so the "idle loop" retires
 * instructions slowly without touching the memory subsystem.
 */
const AppProfile &idleProfile();

/**
 * Profile for any resolvable name: a Table III application or the
 * built-in "idle" profile. fatal() if unknown — schedules and traces
 * resolve through this so bad names fail at load, not mid-run.
 */
const AppProfile &profile(const std::string &name);

/** Like profile(), but nullptr instead of fatal() when unknown. */
const AppProfile *findProfile(const std::string &name);

/** The 16 workload names of Table III (ILP1..MIX4). */
std::vector<std::string> workloadNames();

/** The four applications composing a workload (Table III row). */
std::vector<std::string> mixApps(const std::string &workload);

/** Workload class of a mix: "ILP", "MID", "MEM" or "MIX". */
std::string classOf(const std::string &workload);

/** The four workload names of a class (e.g. "MEM1".."MEM4"). */
std::vector<std::string> workloadsOfClass(const std::string &cls);

/**
 * Build the per-core application list for a workload: N/4 copies of
 * each of its four applications, interleaved (the paper's "xN/4
 * each"). N must be a positive multiple of 4. The pseudo-workload
 * "idle" fills every core with the idle profile (any N >= 1) — the
 * natural substrate for trace-driven runs, where jobs arrive from
 * the trace instead of being pinned at t=0.
 */
std::vector<AppProfile> mix(const std::string &workload, int cores);

} // namespace workloads
} // namespace fastcap

#endif // FASTCAP_WORKLOAD_SPEC_TABLE_HPP
