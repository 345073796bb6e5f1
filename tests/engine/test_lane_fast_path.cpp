/**
 * @file
 * The sharded engine's lane fast path is invisible in results: one
 * lane built by hand twice, once with the inline controller wired and
 * once without, must report bit-identical core and controller
 * counters and retired instructions after every window, through
 * windows that cut miss chains, writeback-heavy phases, bus retuning
 * and application swaps between windows, and out-of-order cores.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/app_profile.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/event_queue.hpp"
#include "sim/memory_controller.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace fastcap {
namespace {

Phase
phase(double instructions, double mpki, double wpki, double cpi)
{
    Phase p;
    p.instructions = instructions;
    p.mpki = mpki;
    p.wpki = wpki;
    p.cpiExec = cpi;
    p.activity = 0.8;
    return p;
}

/** Memory-bound, then writeback-heavy (several per miss), then mild. */
AppProfile
phasedApp()
{
    return AppProfile("phased", {phase(40e3, 25.0, 0.0, 0.8),
                                 phase(30e3, 10.0, 25.0, 1.0),
                                 phase(30e3, 4.0, 1.0, 1.4)});
}

/** Compute-bound with rare misses and no writebacks. */
AppProfile
lightApp()
{
    return AppProfile("light", phase(50e3, 0.5, 0.0, 1.2));
}

/** A sharded-engine lane config: one bus share, a few banks. */
SimConfig
laneConfig(ExecMode mode)
{
    SimConfig cfg = SimConfig::defaultConfig(64);
    cfg.execMode = mode;
    cfg.banksPerController = 4;
    cfg.busBurstCycles *= 16.0;
    return cfg;
}

/** One core and its private controller on their own queue, wired as
 *  ShardedSystem wires a lane, with or without the inline path. */
struct HandLane
{
    HandLane(const SimConfig &cfg, AppProfile profile, bool fast)
        : app(std::move(profile)),
          controller(0, cfg, queue, Rng(splitmix64(42, 1))),
          core(0, cfg, queue, Rng(splitmix64(42, 0)))
    {
        core.runApp(&app);
        core.requestSink(&controller);
        controller.deliverySink(&core);
        if (fast)
            core.inlineController(&controller);
        core.start();
    }

    /** One measurement window, as ShardedSystem runs it. */
    void
    runWindow(Seconds t_end)
    {
        core.resetCounters();
        controller.resetCounters();
        queue.runUntil(t_end);
        core.flushStall(t_end);
        controller.finalizeWindow();
    }

    EventQueue queue;
    AppProfile app;
    MemoryController controller;
    Core core;
};

void
expectSameCore(const CoreCounters &a, const CoreCounters &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.stalls, b.stalls);
    EXPECT_EQ(a.returns, b.returns);
    EXPECT_EQ(doubleBits(a.busyTime), doubleBits(b.busyTime));
    EXPECT_EQ(doubleBits(a.stallTime), doubleBits(b.stallTime));
}

void
expectSameController(const ControllerCounters &a,
                     const ControllerCounters &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(doubleBits(a.qSum), doubleBits(b.qSum));
    EXPECT_EQ(a.qSamples, b.qSamples);
    EXPECT_EQ(doubleBits(a.uSum), doubleBits(b.uSum));
    EXPECT_EQ(a.uSamples, b.uSamples);
    EXPECT_EQ(doubleBits(a.serviceSum), doubleBits(b.serviceSum));
    EXPECT_EQ(a.serviceCount, b.serviceCount);
    EXPECT_EQ(doubleBits(a.responseSum), doubleBits(b.responseSum));
    EXPECT_EQ(a.responseCount, b.responseCount);
    EXPECT_EQ(doubleBits(a.bankBusyTime), doubleBits(b.bankBusyTime));
    EXPECT_EQ(doubleBits(a.busBusyTime), doubleBits(b.busBusyTime));
}

/** What a run of paired windows saw. */
struct RunTally
{
    int cutWindows = 0; //!< windows ending with a read in flight
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
};

/**
 * Run the same windows through both lanes, applying the same knob
 * change between windows, and compare everything after each one.
 * Window lengths range from shorter than one miss to many misses, so
 * window ends fall inside miss chains.
 */
RunTally
runPaired(const SimConfig &cfg, HandLane &fast, HandLane &slow,
          int windows)
{
    Rng pick(2024);
    RunTally tally;
    Seconds t = 0.0;
    for (int w = 0; w < windows; ++w) {
        // Between windows, as the harness would: retune the bus, move
        // core DVFS, swap the application.
        switch (w % 5) {
        case 1: {
            const Hertz f = cfg.memLadder.at(pick.below(cfg.memLadder.size()));
            fast.controller.busFrequency(f);
            slow.controller.busFrequency(f);
            break;
        }
        case 2: {
            const double cycles = 6.0 * (1.0 + 30.0 * pick.uniform());
            fast.controller.busBurstCycles(cycles);
            slow.controller.busBurstCycles(cycles);
            break;
        }
        case 3: {
            const Hertz f =
                cfg.coreLadder.at(pick.below(cfg.coreLadder.size()));
            fast.core.frequency(f);
            slow.core.frequency(f);
            break;
        }
        case 4:
            if (w % 15 == 4) {
                fast.app = lightApp();
                slow.app = lightApp();
            } else {
                fast.app = phasedApp();
                slow.app = phasedApp();
            }
            break;
        default:
            break;
        }

        // From shorter than one miss (~50 ns) to hundreds of misses.
        const double scale = w % 3 == 0 ? 20e-9
            : w % 3 == 1                ? 200e-9
                                        : 10e-6;
        t += scale * (0.5 + 10.0 * pick.uniform());
        fast.runWindow(t);
        slow.runWindow(t);

        SCOPED_TRACE("window " + std::to_string(w));
        expectSameCore(fast.core.counters(), slow.core.counters());
        expectSameController(fast.controller.counters(),
                             slow.controller.counters());
        EXPECT_EQ(doubleBits(fast.core.instructionsRetired()),
                  doubleBits(slow.core.instructionsRetired()));
        EXPECT_EQ(fast.controller.inFlight(), slow.controller.inFlight());
        EXPECT_EQ(fast.core.outstanding(), slow.core.outstanding());
        EXPECT_EQ(fast.core.stalled(), slow.core.stalled());

        if (slow.controller.inFlight() != 0)
            ++tally.cutWindows;
        tally.misses += slow.core.counters().misses;
        tally.writebacks += slow.core.counters().writebacks;
    }
    return tally;
}

TEST(LaneFastPath, InOrderLaneMatchesEventPathBitForBit)
{
    const SimConfig cfg = laneConfig(ExecMode::InOrder);
    HandLane fast(cfg, phasedApp(), true);
    HandLane slow(cfg, phasedApp(), false);
    const RunTally tally = runPaired(cfg, fast, slow, 300);

    // The run covered what it claims to: chains cut by a window end,
    // writeback-heavy stretches, and plenty of misses.
    EXPECT_GT(tally.cutWindows, 10);
    EXPECT_GT(tally.writebacks, 1000u);
    EXPECT_GT(tally.misses, 5000u);
    // The inline path fired: fewer dispatched events for the same
    // misses.
    EXPECT_LT(fast.queue.processed(), slow.queue.processed());
    EXPECT_LT(fast.queue.processed(), 3 * tally.misses);
}

TEST(LaneFastPath, OutOfOrderLaneKeepsEveryEvent)
{
    const SimConfig cfg = laneConfig(ExecMode::OutOfOrder);
    HandLane fast(cfg, phasedApp(), true);
    HandLane slow(cfg, phasedApp(), false);
    const RunTally tally = runPaired(cfg, fast, slow, 150);
    EXPECT_GT(tally.misses, 1000u);
    EXPECT_EQ(fast.queue.processed(), slow.queue.processed());
}

TEST(LaneFastPath, StepOutsideRunUntilNeverResolvesInline)
{
    // Outside runUntil() there is no horizon, so no delivery is
    // certain to be dispatched and every miss takes the event path:
    // the two lanes stay in lockstep event for event.
    const SimConfig cfg = laneConfig(ExecMode::InOrder);
    HandLane fast(cfg, phasedApp(), true);
    HandLane slow(cfg, phasedApp(), false);
    EXPECT_EQ(fast.queue.horizon(),
              -std::numeric_limits<Seconds>::infinity());
    for (int i = 0; i < 400; ++i) {
        ASSERT_TRUE(fast.queue.step());
        ASSERT_TRUE(slow.queue.step());
        ASSERT_EQ(doubleBits(fast.queue.now()),
                  doubleBits(slow.queue.now()));
    }
    EXPECT_GT(fast.core.counters().misses, 50u);
    expectSameCore(fast.core.counters(), slow.core.counters());
    expectSameController(fast.controller.counters(),
                         slow.controller.counters());
}

} // namespace
} // namespace fastcap
