/**
 * @file
 * The sharded engine's lane fast path is invisible in results: one
 * lane built by hand twice, once with the inline controller wired and
 * once without, must report bit-identical core and controller
 * counters and retired instructions after every window, through
 * windows that cut miss chains, writeback-heavy phases, bus retuning
 * and application swaps between windows, and out-of-order cores; on
 * the one-bank lane every 1024-core machine has and on a four-bank
 * one, where a read can overtake its think's writeback on the bus.
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

/** applu-like: a writeback at about 0.42 of the thinks. */
Phase
appluPhase(double instructions)
{
    return phase(instructions, 15.0, 6.3, 1.25);
}

/** Memory-bound, then writeback-heavy (several per miss), then mild,
 *  then applu-like. */
AppProfile
phasedApp()
{
    return AppProfile("phased", {phase(40e3, 25.0, 0.0, 0.8),
                                 phase(30e3, 10.0, 25.0, 1.0),
                                 phase(30e3, 4.0, 1.0, 1.4),
                                 appluPhase(40e3)});
}

/** Compute-bound with rare misses and no writebacks. */
AppProfile
lightApp()
{
    return AppProfile("light", phase(50e3, 0.5, 0.0, 1.2));
}

/** A sharded-engine lane config: one bus share, `banks` banks. */
SimConfig
laneConfig(ExecMode mode, int banks = 4)
{
    SimConfig cfg = SimConfig::defaultConfig(64);
    cfg.execMode = mode;
    cfg.banksPerController = banks;
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
    // Four banks: a writeback and its read may take different banks,
    // and the read may pass the writeback. One bank: every 1024-core
    // lane, where the read queues behind the writeback. One bank with
    // the L2 hop as long as a row hit: the read arrives exactly as a
    // row-hit writeback leaves the bank, a tie the writeback's
    // bank-done wins.
    SimConfig ties = laneConfig(ExecMode::InOrder, 1);
    ties.l2Time = ties.bankRowHitTime;
    const std::vector<std::pair<std::string, SimConfig>> lanes = {
        {"4 banks", laneConfig(ExecMode::InOrder, 4)},
        {"1 bank", laneConfig(ExecMode::InOrder, 1)},
        {"1 bank, ties", ties},
    };
    for (const auto &[name, cfg] : lanes) {
        SCOPED_TRACE(name);
        HandLane fast(cfg, phasedApp(), true);
        HandLane slow(cfg, phasedApp(), false);
        const RunTally tally = runPaired(cfg, fast, slow, 300);

        // The run covered what it claims to: chains cut by a window
        // end, writeback-heavy stretches, and plenty of misses.
        EXPECT_GT(tally.cutWindows, 10);
        EXPECT_GT(tally.writebacks, 1000u);
        EXPECT_GT(tally.misses, 5000u);
        // The inline path fired: fewer dispatched events for the same
        // misses.
        EXPECT_LT(fast.queue.processed(), slow.queue.processed());
        EXPECT_LT(fast.queue.processed(), 3 * tally.misses);
    }
}

TEST(LaneFastPath, OneBankLaneTakesAboutOneEventPerMiss)
{
    // A 1024-core lane running applu over engine-length windows:
    // almost every think, with or without its writeback, resolves
    // inline; only chains crossing a window end take events.
    const SimConfig cfg = laneConfig(ExecMode::InOrder, 1);
    const AppProfile applu("applu", appluPhase(1e9));
    HandLane fast(cfg, applu, true);
    HandLane slow(cfg, applu, false);
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    for (int w = 1; w <= 20; ++w) {
        fast.runWindow(w * 0.5e-3);
        slow.runWindow(w * 0.5e-3);
        SCOPED_TRACE("window " + std::to_string(w));
        expectSameCore(fast.core.counters(), slow.core.counters());
        expectSameController(fast.controller.counters(),
                             slow.controller.counters());
        misses += fast.core.counters().misses;
        writebacks += fast.core.counters().writebacks;
    }
    EXPECT_GT(misses, 10000u);
    EXPECT_GT(writebacks, misses / 3);
    EXPECT_LT(static_cast<double>(fast.queue.processed()),
              1.1 * static_cast<double>(misses));
}

/** Records the delivery times of completed reads. */
struct DeliveryLog final : DeliverySink
{
    void
    onDataReturn(const Request &, Seconds now) override
    {
        times.push_back(now);
    }

    std::vector<Seconds> times;
};

/** A writeback at 0, then its read after the L2 hop, through events;
 *  runs until both are done and returns the read's delivery time. */
Seconds
submitThinkThroughEvents(MemoryController &ctrl, EventQueue &queue,
                         const SimConfig &cfg)
{
    DeliveryLog log;
    ctrl.deliverySink(&log);
    Request wb;
    wb.type = RequestType::Writeback;
    ctrl.submit(wb);
    queue.runUntil(cfg.l2Time);
    ctrl.submit(Request{});
    while (log.times.empty() && queue.step()) {
    }
    // The read is delivered while the writeback is still in flight.
    EXPECT_EQ(ctrl.inFlight(), 1u);
    queue.runUntil(1e-6);
    EXPECT_EQ(ctrl.inFlight(), 0u);
    ctrl.deliverySink(nullptr);
    return log.times.at(0);
}

TEST(LaneFastPath, ReadOvertakingItsWritebackTakesEvents)
{
    // Find a controller stream whose first think sends a row-miss
    // writeback and a row-hit read to different banks: the read's bank
    // is done first, so it takes the bus ahead of the writeback and is
    // delivered before it completes.
    const SimConfig cfg = laneConfig(ExecMode::InOrder, 4);
    std::uint64_t seed = 0;
    for (;; ++seed) {
        Rng r(seed);
        const std::uint64_t wb_bank = r.below(4);
        const bool wb_hit = r.chance(cfg.rowHitRate);
        const std::uint64_t read_bank = r.below(4);
        const bool read_hit = r.chance(cfg.rowHitRate);
        if (wb_bank != read_bank && !wb_hit && read_hit)
            break;
    }

    EventQueue queue;
    MemoryController ctrl(0, cfg, queue, Rng(seed));
    const Seconds inf = std::numeric_limits<Seconds>::infinity();
    EXPECT_FALSE(ctrl.resolveThink(0.0, true, cfg.l2Time, inf).has_value());
    EXPECT_EQ(ctrl.counters().reads, 0u);
    EXPECT_EQ(ctrl.counters().writebacks, 0u);
    EXPECT_EQ(ctrl.counters().qSamples, 0u);
    EXPECT_EQ(ctrl.counters().serviceCount, 0u);
    EXPECT_EQ(ctrl.inFlight(), 0u);

    // The fallback left the RNG as it found it: the same think through
    // events matches a controller that never tried the inline path.
    EventQueue fresh_queue;
    MemoryController fresh(0, cfg, fresh_queue, Rng(seed));
    const Seconds delivered = submitThinkThroughEvents(ctrl, queue, cfg);
    EXPECT_EQ(doubleBits(delivered),
              doubleBits(submitThinkThroughEvents(fresh, fresh_queue, cfg)));
    EXPECT_EQ(doubleBits(delivered),
              doubleBits(cfg.l2Time + cfg.bankRowHitTime +
                         ctrl.transferTime()));
    expectSameController(ctrl.finalizeWindow(), fresh.finalizeWindow());
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
