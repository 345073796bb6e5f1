/**
 * @file
 * The sharded engine's lane fast path is invisible in results: one
 * lane built by hand three ways (all events; inline thinks whose next
 * think goes through the heap; inline thinks run in the core's loop)
 * must report bit-identical core and controller counters and retired
 * instructions after every window, and the two inline lanes the same
 * processed-event count, through windows that cut miss chains or end
 * exactly on a think, writeback-heavy phases, core DVFS, bus retuning,
 * application swaps and instruction credits between windows, and
 * out-of-order cores; on the one-bank lane every 1024-core machine has
 * and on a four-bank one, where a read can overtake its think's
 * writeback on the bus. A next think that the loop draws past the
 * window end waits in the lane's heap, alone, into the next window;
 * knob changes and same-time events around it keep it bit-identical
 * to the heap lane's too.
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

/** How a hand-built lane runs a think. */
enum class Path {
    Events, //!< no inline controller: every request takes events
    Heap,   //!< inline, but a parked event keeps the queue non-empty,
            //!< so every next think goes through the heap
    Loop,   //!< inline, next thinks run in Core::onThinkDone's loop
};

/** Never fires: parked past every window of these tests. */
struct Parked final : EventHandler
{
    void
    onEvent(std::uint32_t, double) override
    {
        ADD_FAILURE() << "parked event fired";
    }
};

/** One core and its private controller on their own queue, wired as
 *  ShardedSystem wires a lane, taking `path`. */
struct HandLane
{
    HandLane(const SimConfig &cfg, AppProfile profile, Path path,
             Rng controller_rng = Rng(splitmix64(42, 1)))
        : app(std::move(profile)),
          controller(0, cfg, queue, controller_rng),
          core(0, cfg, queue, Rng(splitmix64(42, 0)))
    {
        core.runApp(&app);
        core.requestSink(&controller);
        controller.deliverySink(&core);
        if (path != Path::Events)
            core.inlineController(&controller);
        if (path == Path::Heap)
            queue.schedule(1e6, parked);
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
    Parked parked;
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

/** Everything a lane reports after a window, against `ref`. */
void
expectSameLane(HandLane &lane, HandLane &ref)
{
    expectSameCore(lane.core.counters(), ref.core.counters());
    expectSameController(lane.controller.counters(),
                         ref.controller.counters());
    EXPECT_EQ(doubleBits(lane.core.instructionsRetired()),
              doubleBits(ref.core.instructionsRetired()));
    EXPECT_EQ(lane.controller.inFlight(), ref.controller.inFlight());
    EXPECT_EQ(lane.core.outstanding(), ref.core.outstanding());
    EXPECT_EQ(lane.core.stalled(), ref.core.stalled());
}

/** The same lane down all three paths. */
struct LaneTrio
{
    LaneTrio(const SimConfig &cfg, const AppProfile &app)
        : events(cfg, app, Path::Events), heap(cfg, app, Path::Heap),
          loop(cfg, app, Path::Loop)
    {
    }

    template <class Fn>
    void
    each(Fn fn)
    {
        fn(events);
        fn(heap);
        fn(loop);
    }

    /** Run one window on all three and compare them bit for bit: the
     *  loop counts each inline think-done as the heap dispatched it,
     *  and leaves the same events pending, bar the parked one. */
    void
    runWindow(Seconds t_end)
    {
        each([&](HandLane &l) { l.runWindow(t_end); });
        expectSameLane(heap, events);
        expectSameLane(loop, events);
        EXPECT_EQ(loop.queue.processed(), heap.queue.processed());
        EXPECT_EQ(loop.queue.pending() + 1, heap.queue.pending());
        EXPECT_EQ(doubleBits(loop.queue.now()),
                  doubleBits(events.queue.now()));
    }

    HandLane events;
    HandLane heap;
    HandLane loop;
};

/** What a run of windows saw. */
struct RunTally
{
    int cutWindows = 0; //!< windows ending with a read in flight
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
};

/**
 * Run the same windows through all three lanes, applying the same
 * knob change between windows, and compare everything after each
 * one. Window lengths range from shorter than one miss to many misses
 * (`scale` multiplies them all), so window ends fall inside miss
 * chains.
 */
RunTally
runWindows(const SimConfig &cfg, LaneTrio &lanes, int windows,
           double scale = 1.0)
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
            lanes.each([&](HandLane &l) { l.controller.busFrequency(f); });
            break;
        }
        case 2: {
            const double cycles = 6.0 * (1.0 + 30.0 * pick.uniform());
            lanes.each(
                [&](HandLane &l) { l.controller.busBurstCycles(cycles); });
            break;
        }
        case 3: {
            const Hertz f =
                cfg.coreLadder.at(pick.below(cfg.coreLadder.size()));
            lanes.each([&](HandLane &l) { l.core.frequency(f); });
            break;
        }
        case 4:
            lanes.each([&](HandLane &l) {
                l.app = w % 15 == 4 ? lightApp() : phasedApp();
            });
            break;
        default:
            break;
        }
        // Credit instructions as the epoch extrapolation does: jump the
        // retired count into another phase of phasedApp(), now and then
        // across three whole 140e3-instruction cycles too.
        if (w % 7 == 6) {
            const double credit =
                25e3 * (1 + w % 4) + (w % 14 == 6 ? 3 * 140e3 : 0.0);
            lanes.each(
                [&](HandLane &l) { l.core.creditInstructions(credit); });
        }

        // From shorter than one miss (~50 ns) to hundreds of misses.
        const double len = w % 3 == 0 ? 20e-9
            : w % 3 == 1              ? 200e-9
                                      : 10e-6;
        t += scale * len * (0.5 + 10.0 * pick.uniform());
        SCOPED_TRACE("window " + std::to_string(w));
        lanes.runWindow(t);

        const HandLane &ref = lanes.events;
        if (ref.controller.inFlight() != 0)
            ++tally.cutWindows;
        tally.misses += ref.core.counters().misses;
        tally.writebacks += ref.core.counters().writebacks;
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
        LaneTrio trio(cfg, phasedApp());
        const RunTally tally = runWindows(cfg, trio, 300);

        // The run covered what it claims to: chains cut by a window
        // end, writeback-heavy stretches, and plenty of misses.
        EXPECT_GT(tally.cutWindows, 10);
        EXPECT_GT(tally.writebacks, 1000u);
        EXPECT_GT(tally.misses, 5000u);
        // The inline path fired: fewer processed events for the same
        // misses.
        EXPECT_LT(trio.loop.queue.processed(),
                  trio.events.queue.processed());
        EXPECT_LT(trio.loop.queue.processed(), 3 * tally.misses);
    }
}

TEST(LaneFastPath, OneBankLaneTakesAboutOneEventPerMiss)
{
    // A 1024-core lane running applu over engine-length windows:
    // almost every think, with or without its writeback, resolves
    // inline; only chains crossing a window end take events.
    const SimConfig cfg = laneConfig(ExecMode::InOrder, 1);
    LaneTrio trio(cfg, AppProfile("applu", appluPhase(1e9)));
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    for (int w = 1; w <= 20; ++w) {
        SCOPED_TRACE("window " + std::to_string(w));
        trio.runWindow(w * 0.5e-3);
        misses += trio.loop.core.counters().misses;
        writebacks += trio.loop.core.counters().writebacks;
    }
    EXPECT_GT(misses, 10000u);
    EXPECT_GT(writebacks, misses / 3);
    EXPECT_LT(static_cast<double>(trio.loop.queue.processed()),
              1.1 * static_cast<double>(misses));
}

TEST(LaneFastPath, ThinkEndingExactlyAtTheWindowEndRunsInIt)
{
    // A think ending exactly at the window end belongs to that window:
    // runUntil() dispatches an event at t_end, and the loop's `<=`
    // test runs one there inline. Find think-done times on the event
    // path (outside runUntil() nothing resolves inline, and the times
    // do not depend on windows), then end windows exactly on them.
    const SimConfig cfg = laneConfig(ExecMode::InOrder, 1);
    const AppProfile applu("applu", appluPhase(1e9));
    std::vector<Seconds> think_done;
    {
        HandLane probe(cfg, applu, Path::Events);
        while (think_done.size() < 400) {
            const std::uint64_t before = probe.core.counters().misses;
            ASSERT_TRUE(probe.queue.step());
            if (probe.core.counters().misses != before)
                think_done.push_back(probe.queue.now());
        }
    }
    for (const std::size_t k : {2u, 17u, 150u, 399u}) {
        SCOPED_TRACE("think " + std::to_string(k));
        LaneTrio trio(cfg, applu);
        trio.runWindow(think_done[k - 1]);
        EXPECT_EQ(trio.loop.core.counters().misses, k);
        EXPECT_EQ(doubleBits(trio.loop.queue.now()),
                  doubleBits(think_done[k - 1]));
        // The next window starts with that think's read in flight.
        EXPECT_EQ(trio.loop.core.outstanding(), 1);
        trio.runWindow(think_done.back() + 1e-6);
    }
}

/** True when all a lane has pending is its core's next think: it
 *  waits out the window end alone in the heap. */
bool
thinkWaitsAlone(const HandLane &lane)
{
    return lane.core.outstanding() == 0 && lane.queue.pending() == 1;
}

/** Records its lane's miss count when it fires. */
struct MissProbe final : EventHandler
{
    explicit MissProbe(const Core &c) : core(c) {}

    void
    onEvent(std::uint32_t, double) override
    {
        seen.push_back(core.counters().misses);
    }

    const Core &core;
    std::vector<std::uint64_t> seen;
};

TEST(LaneFastPath, CarriedThinkEndingExactlyAtTheWindowEndRunsInIt)
{
    // A window ending 1 ns before a think's done carries that think
    // over in the heap; the next window ends exactly at its done, and
    // the think runs in it, as the heap dispatches an event at t_end.
    // A probe scheduled at that same time after the think fires after
    // it on every lane: the think keeps its place in the tie.
    const SimConfig cfg = laneConfig(ExecMode::InOrder, 1);
    const AppProfile app = lightApp();
    std::vector<Seconds> think_done;
    {
        HandLane probe(cfg, app, Path::Events);
        while (think_done.size() < 40) {
            const std::uint64_t before = probe.core.counters().misses;
            ASSERT_TRUE(probe.queue.step());
            if (probe.core.counters().misses != before)
                think_done.push_back(probe.queue.now());
        }
    }
    for (const std::size_t k : {3u, 11u, 39u}) {
        SCOPED_TRACE("think " + std::to_string(k));
        LaneTrio trio(cfg, app);
        trio.runWindow(think_done[k] - 1e-9);
        ASSERT_TRUE(thinkWaitsAlone(trio.loop));
        MissProbe events_probe(trio.events.core);
        MissProbe heap_probe(trio.heap.core);
        MissProbe loop_probe(trio.loop.core);
        trio.events.queue.schedule(think_done[k], events_probe);
        trio.heap.queue.schedule(think_done[k], heap_probe);
        trio.loop.queue.schedule(think_done[k], loop_probe);
        trio.runWindow(think_done[k]);
        EXPECT_EQ(trio.loop.core.counters().misses, 1u);
        EXPECT_EQ(doubleBits(trio.loop.queue.now()),
                  doubleBits(think_done[k]));
        EXPECT_EQ(heap_probe.seen, (std::vector<std::uint64_t>{1}));
        EXPECT_EQ(events_probe.seen, heap_probe.seen);
        EXPECT_EQ(loop_probe.seen, heap_probe.seen);
    }
}

TEST(LaneFastPath, TwoWritebackThinkMidChainFallsBackToEvents)
{
    // 1.3 writebacks per miss: every think writes back one line, and
    // about three in ten two, which cannot resolve inline. Chains of
    // inline thinks meet such a think mid-window, take events for it
    // and resume the loop once the lane drains.
    const SimConfig cfg = laneConfig(ExecMode::InOrder, 1);
    const AppProfile writer("writer", phase(1e9, 10.0, 13.0, 1.0));
    LaneTrio trio(cfg, writer);
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    for (int w = 1; w <= 10; ++w) {
        SCOPED_TRACE("window " + std::to_string(w));
        trio.runWindow(w * 50e-6);
        misses += trio.events.core.counters().misses;
        writebacks += trio.events.core.counters().writebacks;
    }
    EXPECT_GT(misses, 2000u);
    EXPECT_GT(writebacks, misses + misses / 5);
    EXPECT_LT(writebacks, misses + misses / 2);
    // Both paths ran: fewer events than all-events, more than one per
    // miss.
    EXPECT_LT(trio.loop.queue.processed(),
              trio.events.queue.processed());
    EXPECT_GT(trio.loop.queue.processed(), misses + misses / 5);
}

TEST(LaneFastPath, LoopSpansKnobChangesBetweenWindows)
{
    // Long windows on a 1024-core lane shape, so the loop runs long
    // chains on both sides of every core DVFS change, bus retune and
    // application swap between them.
    const SimConfig cfg = laneConfig(ExecMode::InOrder, 1);
    LaneTrio trio(cfg, phasedApp());
    const RunTally tally = runWindows(cfg, trio, 60, 10.0);
    EXPECT_GT(tally.misses, 10000u);
    EXPECT_LT(trio.loop.queue.processed(), 2 * tally.misses);
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
    // One writeback per miss, certain, so the core RNG draws none.
    const AppProfile app("wb", phase(1e9, 10.0, 10.0, 1.0));

    // The first think ends at `think`, and its read is delivered at
    // `delivered`, through events.
    HandLane events(cfg, app, Path::Events, Rng(seed));
    ASSERT_TRUE(events.queue.step());
    const Seconds think = events.queue.now();
    const Seconds delivered = think + cfg.l2Time + cfg.bankRowHitTime +
        events.controller.transferTime();

    // A window ending at that delivery would take it inline, but for
    // the overtaking: the loop falls back to events and leaves the RNG
    // as it found it, so both lanes match with the writeback still in
    // flight.
    HandLane events_ref(cfg, app, Path::Events, Rng(seed));
    HandLane loop(cfg, app, Path::Loop, Rng(seed));
    events_ref.runWindow(delivered);
    loop.runWindow(delivered);
    expectSameLane(loop, events_ref);
    EXPECT_EQ(loop.core.counters().returns, 1u);
    EXPECT_EQ(loop.controller.counters().writebacks, 1u);
    EXPECT_EQ(loop.controller.inFlight(), 1u);
    EXPECT_EQ(doubleBits(loop.core.counters().stallTime),
              doubleBits(delivered - think));
    EXPECT_EQ(loop.queue.processed(), events_ref.queue.processed());
}

TEST(LaneFastPath, OutOfOrderLaneKeepsEveryEvent)
{
    const SimConfig cfg = laneConfig(ExecMode::OutOfOrder);
    LaneTrio trio(cfg, phasedApp());
    const RunTally tally = runWindows(cfg, trio, 150);
    EXPECT_GT(tally.misses, 1000u);
    EXPECT_EQ(trio.loop.queue.processed(), trio.events.queue.processed());
}

TEST(LaneFastPath, StepOutsideRunUntilNeverResolvesInline)
{
    // Outside runUntil() there is no horizon, so no delivery is
    // certain to be dispatched and every miss takes the event path:
    // the two lanes stay in lockstep event for event.
    const SimConfig cfg = laneConfig(ExecMode::InOrder);
    HandLane fast(cfg, phasedApp(), Path::Loop);
    HandLane slow(cfg, phasedApp(), Path::Events);
    EXPECT_EQ(fast.queue.horizon(),
              -std::numeric_limits<Seconds>::infinity());
    for (int i = 0; i < 400; ++i) {
        ASSERT_TRUE(fast.queue.step());
        ASSERT_TRUE(slow.queue.step());
        ASSERT_EQ(doubleBits(fast.queue.now()),
                  doubleBits(slow.queue.now()));
    }
    EXPECT_GT(fast.core.counters().misses, 50u);
    expectSameLane(fast, slow);
}

/** The knob a carried-think run changes between windows. */
enum class Knob { None, Swap, Dvfs, Credit };

TEST(LaneFastPath, CarriedThinkMatchesHeapPathAcrossWindowBoundaries)
{
    // Windows a few rare-miss thinks long mostly end inside a think
    // whose miss resolved inline, so the loop lane carries that think
    // into the next window in its heap. Between windows each knob
    // changes what that think's run or the think after it sees; all
    // three lanes must stay bit-identical, counts and pending
    // included.
    const SimConfig cfg = laneConfig(ExecMode::InOrder, 1);
    for (const Knob knob : {Knob::None, Knob::Swap, Knob::Dvfs,
                            Knob::Credit}) {
        SCOPED_TRACE("knob " + std::to_string(static_cast<int>(knob)));
        LaneTrio trio(cfg, lightApp());
        Rng pick(7);
        int carried = 0;
        int carried_changed = 0;
        Seconds t = 0.0;
        for (int w = 0; w < 200; ++w) {
            const bool alone = thinkWaitsAlone(trio.loop);
            carried += alone ? 1 : 0;
            if (w % 2 == 1) {
                carried_changed += alone ? 1 : 0;
                switch (knob) {
                case Knob::Swap:
                    trio.each([&](HandLane &l) {
                        l.app = w % 4 == 1 ? phasedApp() : lightApp();
                    });
                    break;
                case Knob::Dvfs: {
                    const Hertz f = cfg.coreLadder.at(
                        pick.below(cfg.coreLadder.size()));
                    trio.each([&](HandLane &l) { l.core.frequency(f); });
                    break;
                }
                case Knob::Credit:
                    trio.each([&](HandLane &l) {
                        l.core.creditInstructions(1e3 * (1 + w % 5));
                    });
                    break;
                case Knob::None:
                    break;
                }
            }
            t += 2e-6 * (0.2 + pick.uniform());
            SCOPED_TRACE("window " + std::to_string(w));
            trio.runWindow(t);
        }
        // Most windows began with a carried think, about half of
        // those after a knob change.
        EXPECT_GT(carried, 80);
        if (knob != Knob::None) {
            EXPECT_GT(carried_changed, 40);
        }
    }
}

TEST(LaneFastPath, CarriedThinkFallingBackToEventsMatchesHeapPath)
{
    // A think carried over under a writeback-free application runs
    // under one that writes back two lines per miss: its think-done
    // draws two writebacks, which cannot resolve inline, so the lane
    // falls back to events right after the carried think, at the
    // start of the window. Then back again.
    const SimConfig cfg = laneConfig(ExecMode::InOrder, 1);
    const AppProfile writer("writer2", phase(1e9, 10.0, 20.0, 1.0));
    LaneTrio trio(cfg, lightApp());
    Rng pick(11);
    int fallbacks = 0;
    Seconds t = 0.0;
    for (int w = 0; w < 120; ++w) {
        const bool swap_to_writer = thinkWaitsAlone(trio.loop) && w % 2;
        if (swap_to_writer)
            trio.each([&](HandLane &l) { l.app = writer; });
        const std::uint64_t before = trio.loop.queue.processed();
        // Long enough after a swap for the carried think to end in it.
        t += (swap_to_writer ? 5e-6 : 2e-6) * (0.2 + pick.uniform());
        SCOPED_TRACE("window " + std::to_string(w));
        trio.runWindow(t);
        if (swap_to_writer) {
            // More events than misses: the carried think's requests,
            // at least, took the event path.
            EXPECT_GT(trio.loop.queue.processed() - before,
                      trio.loop.core.counters().misses);
            ++fallbacks;
            trio.each([&](HandLane &l) { l.app = lightApp(); });
        }
    }
    EXPECT_GT(fallbacks, 20);
}

} // namespace
} // namespace fastcap
