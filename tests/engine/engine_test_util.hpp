/**
 * @file
 * Shared helpers for the simulation-engine test suites: exact
 * (bit-level) serialization of window stats and epoch records, so
 * the determinism contract — byte-identical output for every shard
 * and thread count — is checked on raw double bits, not on rounded
 * text.
 */

#ifndef FASTCAP_TESTS_ENGINE_TEST_UTIL_HPP
#define FASTCAP_TESTS_ENGINE_TEST_UTIL_HPP

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/experiment.hpp"
#include "sim/system.hpp"
#include "util/math.hpp"

namespace fastcap {
namespace enginetest {

inline void
appendBits(std::string &out, double v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 " ", doubleBits(v));
    out += buf;
}

inline void
appendUint(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
    out += ' ';
}

/** Every numeric field of a WindowStats, bit-exact. */
inline std::string
serialize(const WindowStats &w)
{
    std::string s;
    appendBits(s, w.duration);
    appendBits(s, w.backgroundPower);
    appendBits(s, w.totalEnergy);
    for (const CoreWindowStats &c : w.cores) {
        appendUint(s, c.counters.instructions);
        appendUint(s, c.counters.misses);
        appendUint(s, c.counters.writebacks);
        appendUint(s, c.counters.stalls);
        appendUint(s, c.counters.returns);
        appendBits(s, c.counters.busyTime);
        appendBits(s, c.counters.stallTime);
        appendBits(s, c.frequency);
        appendBits(s, c.retired);
        appendBits(s, c.activity);
        appendBits(s, c.dynamicPower);
        appendBits(s, c.totalPower);
        s += '\n';
    }
    for (const MemWindowStats &m : w.memory) {
        appendUint(s, m.counters.reads);
        appendUint(s, m.counters.writebacks);
        appendBits(s, m.counters.qSum);
        appendUint(s, m.counters.qSamples);
        appendBits(s, m.counters.uSum);
        appendUint(s, m.counters.uSamples);
        appendBits(s, m.counters.serviceSum);
        appendUint(s, m.counters.serviceCount);
        appendBits(s, m.counters.responseSum);
        appendUint(s, m.counters.responseCount);
        appendBits(s, m.counters.bankBusyTime);
        appendBits(s, m.counters.busBusyTime);
        appendBits(s, m.busFrequency);
        appendBits(s, m.transferTime);
        appendBits(s, m.busUtilisation);
        appendBits(s, m.dynamicPower);
        appendBits(s, m.totalPower);
        s += '\n';
    }
    return s;
}

/** Every numeric field of an experiment's epoch log, bit-exact. */
inline std::string
serialize(const ExperimentResult &res)
{
    std::string s;
    appendBits(s, res.peakPower);
    appendBits(s, res.budget);
    appendBits(s, res.budgetFraction);
    for (const EpochRecord &e : res.epochs) {
        appendUint(s, static_cast<std::uint64_t>(e.epoch));
        appendBits(s, e.startTime);
        appendBits(s, e.duration);
        appendBits(s, e.corePower);
        appendBits(s, e.memPower);
        appendBits(s, e.totalPower);
        appendBits(s, e.budget);
        appendUint(s, e.memFreqIdx);
        appendUint(s, static_cast<std::uint64_t>(e.evaluations));
        appendUint(s, e.budgetSaturated ? 1 : 0);
        appendUint(s, e.utilisationClamped ? 1 : 0);
        for (std::size_t idx : e.coreFreqIdx)
            appendUint(s, idx);
        for (double ips : e.ips)
            appendBits(s, ips);
        s += '\n';
    }
    for (const AppResult &a : res.apps) {
        s += a.app;
        s += ' ';
        appendUint(s, static_cast<std::uint64_t>(a.core));
        appendUint(s, a.completed ? 1 : 0);
        appendBits(s, a.completionTime);
        appendBits(s, a.tpi);
        s += '\n';
    }
    return s;
}

} // namespace enginetest
} // namespace fastcap

#endif // FASTCAP_TESTS_ENGINE_TEST_UTIL_HPP
