/**
 * @file
 * Application behaviour profiles driving the simulated cores.
 *
 * The paper runs SPEC 2000/2006 Simpoints; we substitute synthetic
 * profiles (see docs/DESIGN.md section 2): each application is a cyclic
 * sequence of phases, each phase characterised by its non-memory CPI,
 * L2 miss and writeback rates, and switching activity. FastCap never
 * sees these parameters — only the performance counters the simulator
 * derives from them.
 */

#ifndef FASTCAP_SIM_APP_PROFILE_HPP
#define FASTCAP_SIM_APP_PROFILE_HPP

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "util/logging.hpp"

namespace fastcap {

/**
 * One execution phase of an application.
 *
 * Rates are per kilo-instruction as in Table III of the paper.
 */
struct Phase
{
    /** Length of this phase in instructions. */
    double instructions = 10e6;
    /** Cycles per instruction of pure compute (no L2 misses). */
    double cpiExec = 1.0;
    /** L2 misses (memory reads) per kilo-instruction. */
    double mpki = 1.0;
    /** L2 writebacks per kilo-instruction. */
    double wpki = 0.2;
    /** Switching-activity factor in (0, 1]; scales dynamic power. */
    double activity = 0.8;

    /** Average instructions between two demand misses. */
    double
    instructionsPerMiss() const
    {
        return 1000.0 / mpki;
    }
};

/**
 * A named application: cyclic phase schedule.
 *
 * Phase selection wraps modulo the cycle length, so profiles describe
 * stationary long-run behaviour with periodic phase changes — the
 * dynamics Figs 4, 7 and 8 of the paper exercise.
 */
class AppProfile
{
  public:
    AppProfile() = default;

    AppProfile(std::string name, std::vector<Phase> phases)
        : _name(std::move(name)), _phases(std::move(phases))
    {
        if (_phases.empty())
            fatal("AppProfile %s: needs at least one phase",
                  _name.c_str());
        for (const Phase &p : _phases) {
            // Negated so NaN fails too. A think draws its writebacks
            // one by one, so their count per miss is bounded.
            if (!(std::isfinite(p.instructions) && std::isfinite(p.cpiExec) &&
                  std::isfinite(p.mpki) && p.instructions > 0.0 &&
                  p.cpiExec > 0.0 && p.mpki > 0.0 && p.wpki >= 0.0 &&
                  p.wpki / p.mpki <= 1000.0 && p.activity > 0.0 &&
                  p.activity <= 1.0)) {
                fatal("AppProfile %s: phase parameters must be finite and "
                      "positive, with at most 1000 writebacks per miss and "
                      "activity at most 1", _name.c_str());
            }
            _cycleLength += p.instructions;
        }
        if (!std::isfinite(_cycleLength))
            fatal("AppProfile %s: cycle length overflows", _name.c_str());
    }

    /** Single-phase convenience constructor. */
    AppProfile(std::string name, Phase phase)
        : AppProfile(std::move(name),
                     std::vector<Phase>{std::move(phase)})
    {}

    const std::string &name() const { return _name; }
    const std::vector<Phase> &phases() const { return _phases; }
    double cycleLength() const { return _cycleLength; }

    /** Phase in effect after `instr_executed` instructions. */
    const Phase &
    phaseAt(double instr_executed) const
    {
        double until;
        return phaseAt(instr_executed, until);
    }

    /**
     * phaseAt(`x`), and in `until` a bound below which it stays that
     * phase: phaseAt(y) is the same Phase for every y in [x, until).
     * The bound is the phase's end less a margin of 256 ulps per phase
     * of |x| + cycleLength(), far above the rounding of the position
     * `x - L * floor(x / L)` and the sums below, so the span is empty
     * only within that margin of a boundary.
     */
    const Phase &
    phaseAt(double x, double &until) const
    {
        until = std::numeric_limits<double>::infinity();
        if (_phases.size() == 1)
            return _phases.front();
        const double base = _cycleLength * std::floor(x / _cycleLength);
        const double margin = (std::fabs(x) + _cycleLength) *
            static_cast<double>(_phases.size() + 1) * 0x1p-44;
        double pos = x - base;
        double end = base;
        for (const Phase &p : _phases) {
            end += p.instructions;
            if (pos < p.instructions) {
                until = end - margin;
                return p;
            }
            pos -= p.instructions;
        }
        // Rounding put `x` past the last phase's end: an empty span.
        until = end - margin;
        return _phases.back();
    }

  private:
    std::string _name;
    std::vector<Phase> _phases;
    double _cycleLength = 0.0;
};

} // namespace fastcap

#endif // FASTCAP_SIM_APP_PROFILE_HPP
