/**
 * @file
 * Instruction-weighted averages over an application's phases: how
 * the workload tests compare Table III's per-application figures.
 * The simulator reads phases one at a time and never needs them.
 */

#ifndef FASTCAP_TESTS_SUPPORT_PROFILE_AVERAGE_HPP
#define FASTCAP_TESTS_SUPPORT_PROFILE_AVERAGE_HPP

#include "sim/app_profile.hpp"

namespace fastcap {

/** Instruction-weighted average of `field` (mpki, wpki, cpiExec,
 *  ...) over one cycle of `app`. */
inline double
averageOf(const AppProfile &app, double Phase::*field)
{
    double acc = 0.0;
    for (const Phase &p : app.phases())
        acc += p.*field * p.instructions;
    return acc / app.cycleLength();
}

} // namespace fastcap

#endif // FASTCAP_TESTS_SUPPORT_PROFILE_AVERAGE_HPP
