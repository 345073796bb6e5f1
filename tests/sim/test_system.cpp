/**
 * @file
 * Tests for the assembled many-core system: window simulation,
 * counters, power accounting, DVFS actuation, multi-controller
 * routing and conservation invariants.
 */

#include <gtest/gtest.h>

#include <limits>

#include "sim/system.hpp"
#include "util/logging.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

SimConfig
smallConfig(int cores = 4)
{
    SimConfig cfg = SimConfig::defaultConfig(cores);
    cfg.seed = 1234;
    return cfg;
}

TEST(System, RejectsMismatchedAppCount)
{
    SimConfig cfg = smallConfig(4);
    std::vector<AppProfile> apps(3, workloads::spec("gcc"));
    EXPECT_THROW(ManyCoreSystem(cfg, apps), FatalError);
}

TEST(System, ConfigRejectsNonFiniteFields)
{
    // Library callers reach validate() without a CLI parser, and NaN
    // compares false with everything, so `x <= 0`-style checks would
    // let it through.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    double SimConfig::*const fields[] = {
        &SimConfig::busBurstCycles, &SimConfig::epochLength,
        &SimConfig::profileWindow,  &SimConfig::execWindow,
        &SimConfig::skewHotFraction, &SimConfig::rowHitRate,
        &SimConfig::bankRowHitTime, &SimConfig::bankRowMissTime};
    for (double SimConfig::*field : fields) {
        for (double bad : {nan, inf, -inf}) {
            SimConfig cfg = smallConfig(4);
            cfg.*field = bad;
            EXPECT_THROW(cfg.validate(), FatalError) << bad;
        }
    }
    double CorePowerConfig::*const power[] = {
        &CorePowerConfig::dynMax, &CorePowerConfig::staticPower,
        &CorePowerConfig::stallFactor};
    for (double CorePowerConfig::*field : power) {
        for (double bad : {nan, inf, -inf}) {
            SimConfig cfg = smallConfig(4);
            cfg.corePower.*field = bad;
            EXPECT_THROW(cfg.validate(), FatalError) << bad;
        }
    }
    EXPECT_NO_THROW(smallConfig(4).validate());
}

TEST(System, WindowProducesActivityOnAllCores)
{
    SimConfig cfg = smallConfig(4);
    ManyCoreSystem sys(cfg, workloads::mix("MID1", 4));
    const WindowStats w = sys.runWindow(fromUs(100));

    EXPECT_DOUBLE_EQ(w.duration, fromUs(100));
    ASSERT_EQ(w.cores.size(), 4u);
    for (const CoreWindowStats &cs : w.cores) {
        EXPECT_GT(cs.counters.instructions, 0u);
        EXPECT_GT(cs.counters.misses, 0u);
        EXPECT_GT(cs.counters.busyTime, 0.0);
        EXPECT_GT(cs.totalPower, 0.0);
    }
    ASSERT_EQ(w.memory.size(), 1u);
    EXPECT_GT(w.memory[0].counters.reads, 0u);
    EXPECT_GT(w.totalPower(), 0.0);
}

TEST(System, BusyPlusStallApproximatesWindow)
{
    SimConfig cfg = smallConfig(4);
    ManyCoreSystem sys(cfg, workloads::mix("MEM1", 4));
    // Warm up, then measure a steady window.
    sys.runWindow(fromUs(50));
    const WindowStats w = sys.runWindow(fromUs(200));
    for (const CoreWindowStats &cs : w.cores) {
        const Seconds covered =
            cs.counters.busyTime + cs.counters.stallTime;
        EXPECT_NEAR(covered / w.duration, 1.0, 0.15)
            << "cores are always thinking or waiting";
    }
}

TEST(System, EnergyMatchesPowerTimesDuration)
{
    SimConfig cfg = smallConfig(4);
    ManyCoreSystem sys(cfg, workloads::mix("MIX1", 4));
    const WindowStats w = sys.runWindow(fromUs(100));
    EXPECT_NEAR(w.totalEnergy, w.totalPower() * w.duration,
                1e-9 * w.totalEnergy);
}

TEST(System, FrequencyActuationIsVisible)
{
    SimConfig cfg = smallConfig(4);
    ManyCoreSystem sys(cfg, workloads::mix("ILP1", 4));
    std::vector<std::size_t> core(4, cfg.coreLadder.maxIndex());
    core[2] = 0;
    sys.applyLevels(core, 3);
    // The actuation reaches its core and every controller's bus.
    const WindowStats w = sys.runWindow(fromUs(10));
    EXPECT_DOUBLE_EQ(w.cores[2].frequency, cfg.coreLadder.at(0));
    EXPECT_DOUBLE_EQ(w.cores[1].frequency, cfg.coreLadder.max());
    ASSERT_EQ(w.memory.size(),
              static_cast<std::size_t>(cfg.numControllers));
    for (const MemWindowStats &m : w.memory)
        EXPECT_DOUBLE_EQ(m.busFrequency, cfg.memLadder.at(3));

    core[2] = 99;
    EXPECT_THROW(sys.applyLevels(core, 3), PanicError);
    core[2] = 0;
    EXPECT_THROW(sys.applyLevels(core, 99), PanicError);
    // One level per core, one credit per core.
    EXPECT_THROW(sys.applyLevels({0, 0, 0}, 3), PanicError);
    EXPECT_THROW(sys.creditInstructions({1.0, 1.0}), PanicError);
    EXPECT_THROW(sys.creditInstructions({0.0, -1.0, 0.0, 0.0}),
                 PanicError);
}

TEST(System, WindowsReportCumulativeRetiredInstructions)
{
    SimConfig cfg = smallConfig(4);
    ManyCoreSystem sys(cfg, workloads::mix("ILP1", 4));
    const std::vector<double> credit = {1e6, 0.0, 0.0, 2.5e5};
    const WindowStats w1 = sys.runWindow(fromUs(50));
    sys.creditInstructions(credit);
    const WindowStats w2 = sys.runWindow(fromUs(50));
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(w1.cores[i].retired, 0.0);
        // The count carries on across windows and includes the
        // credit made between them.
        EXPECT_GT(w2.cores[i].retired, w1.cores[i].retired + credit[i]);
    }
}

TEST(System, LowerCoreFrequencyLowersCorePower)
{
    SimConfig cfg = smallConfig(4);
    ManyCoreSystem sys_hi(cfg, workloads::mix("ILP1", 4));
    const WindowStats hi = sys_hi.runWindow(fromUs(200));

    SimConfig cfg2 = smallConfig(4);
    ManyCoreSystem sys_lo(cfg2, workloads::mix("ILP1", 4));
    sys_lo.applyLevels(std::vector<std::size_t>(4, 0),
                       cfg2.memLadder.maxIndex());
    const WindowStats lo = sys_lo.runWindow(fromUs(200));

    EXPECT_LT(lo.corePowerTotal(), 0.55 * hi.corePowerTotal())
        << "V^2 f scaling must bite for busy cores";
}

TEST(System, LowerMemFrequencyLowersMemPower)
{
    SimConfig cfg = smallConfig(16);
    ManyCoreSystem hi(cfg, workloads::mix("ILP1", 16));
    const WindowStats whi = hi.runWindow(fromUs(200));

    SimConfig cfg2 = smallConfig(16);
    ManyCoreSystem lo(cfg2, workloads::mix("ILP1", 16));
    lo.applyLevels(std::vector<std::size_t>(16, cfg2.coreLadder.maxIndex()),
                   0);
    const WindowStats wlo = lo.runWindow(fromUs(200));

    EXPECT_LT(wlo.memPowerTotal(), whi.memPowerTotal());
}

TEST(System, MemSlowdownHurtsMemBoundThroughput)
{
    SimConfig cfg = smallConfig(16);
    ManyCoreSystem fast(cfg, workloads::mix("MEM1", 16));
    fast.runWindow(fromUs(100)); // warm-up
    const WindowStats wf = fast.runWindow(fromUs(300));

    SimConfig cfg2 = smallConfig(16);
    ManyCoreSystem slow(cfg2, workloads::mix("MEM1", 16));
    slow.applyLevels(
        std::vector<std::size_t>(16, cfg2.coreLadder.maxIndex()), 0);
    slow.runWindow(fromUs(100));
    const WindowStats ws = slow.runWindow(fromUs(300));

    std::uint64_t instr_fast = 0;
    std::uint64_t instr_slow = 0;
    for (int i = 0; i < 16; ++i) {
        instr_fast += wf.cores[i].counters.instructions;
        instr_slow += ws.cores[i].counters.instructions;
    }
    EXPECT_LT(instr_slow, instr_fast)
        << "memory-bound workload must slow with the memory";
}

TEST(System, CoreSlowdownBarelyHurtsMemBound)
{
    // The complementary property: for MEM workloads, core frequency
    // matters much less than memory frequency.
    SimConfig cfg = smallConfig(16);
    ManyCoreSystem fast(cfg, workloads::mix("MEM1", 16));
    fast.runWindow(fromUs(100));
    const WindowStats wf = fast.runWindow(fromUs(300));

    SimConfig cfg2 = smallConfig(16);
    ManyCoreSystem slow(cfg2, workloads::mix("MEM1", 16));
    slow.applyLevels(std::vector<std::size_t>(16, 0),
                     cfg2.memLadder.maxIndex());
    slow.runWindow(fromUs(100));
    const WindowStats ws = slow.runWindow(fromUs(300));

    std::uint64_t instr_fast = 0;
    std::uint64_t instr_slow = 0;
    for (int i = 0; i < 16; ++i) {
        instr_fast += wf.cores[i].counters.instructions;
        instr_slow += ws.cores[i].counters.instructions;
    }
    // Cores at 2.2 GHz (45% slower) should cost well under 45% of
    // throughput on a memory-bound mix.
    EXPECT_GT(static_cast<double>(instr_slow),
              0.6 * static_cast<double>(instr_fast));
}

TEST(System, DeterministicAcrossIdenticalRuns)
{
    SimConfig cfg = smallConfig(8);
    ManyCoreSystem a(cfg, workloads::mix("MIX2", 8));
    ManyCoreSystem b(cfg, workloads::mix("MIX2", 8));
    const WindowStats wa = a.runWindow(fromUs(150));
    const WindowStats wb = b.runWindow(fromUs(150));
    ASSERT_EQ(wa.cores.size(), wb.cores.size());
    for (std::size_t i = 0; i < wa.cores.size(); ++i) {
        EXPECT_EQ(wa.cores[i].counters.instructions,
                  wb.cores[i].counters.instructions);
        EXPECT_EQ(wa.cores[i].counters.misses,
                  wb.cores[i].counters.misses);
    }
    EXPECT_EQ(a.eventsProcessed(), b.eventsProcessed());
    EXPECT_DOUBLE_EQ(wa.totalEnergy, wb.totalEnergy);
}

TEST(System, MultiControllerUniformSpreadsLoad)
{
    SimConfig cfg = smallConfig(16);
    cfg.numControllers = 4;
    cfg.banksPerController = 8;
    cfg.busBurstCycles = 6.0; // one channel per controller
    ManyCoreSystem sys(cfg, workloads::mix("MEM2", 16));
    const WindowStats w = sys.runWindow(fromUs(300));
    ASSERT_EQ(w.memory.size(), 4u);
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    for (const MemWindowStats &m : w.memory) {
        lo = std::min(lo, m.counters.reads);
        hi = std::max(hi, m.counters.reads);
    }
    EXPECT_GT(lo, 0u);
    EXPECT_LT(static_cast<double>(hi),
              2.0 * static_cast<double>(lo))
        << "uniform interleaving must not skew heavily";
}

TEST(System, MultiControllerSkewConcentratesLoad)
{
    SimConfig cfg = smallConfig(16);
    cfg.numControllers = 4;
    cfg.banksPerController = 8;
    cfg.busBurstCycles = 6.0;
    cfg.interleave = InterleaveMode::Skewed;
    cfg.skewHotFraction = 0.7;
    ManyCoreSystem sys(cfg, workloads::mix("MEM2", 16));
    const WindowStats w = sys.runWindow(fromUs(300));
    ASSERT_EQ(w.memory.size(), 4u);
    const double hot = static_cast<double>(w.memory[0].counters.reads);
    double cold = 0.0;
    for (std::size_t k = 1; k < 4; ++k)
        cold += static_cast<double>(w.memory[k].counters.reads);
    EXPECT_GT(hot, 1.2 * cold / 3.0 * 3.0)
        << "hot controller must dominate";

    // Access-probability matrix reflects the skew.
    const auto &probs = sys.accessProbabilities(0);
    EXPECT_NEAR(probs[0], 0.7, 1e-12);
    EXPECT_NEAR(probs[1], 0.1, 1e-12);
}

TEST(System, NameplatePeakAboveObservedWindowPower)
{
    SimConfig cfg = smallConfig(16);
    ManyCoreSystem sys(cfg, workloads::mix("ILP1", 16));
    const WindowStats w = sys.runWindow(fromUs(200));
    EXPECT_GT(sys.nameplatePeakPower(), w.totalPower());
}

TEST(System, InFlightRequestsSettleWhenDrained)
{
    SimConfig cfg = smallConfig(4);
    ManyCoreSystem sys(cfg, workloads::mix("MEM1", 4));
    sys.runWindow(fromUs(100));
    // In-flight is bounded by outstanding core misses + writebacks in
    // queues; never negative or runaway.
    EXPECT_LT(sys.memoryInFlight(), 10000u);
}

} // namespace
} // namespace fastcap
