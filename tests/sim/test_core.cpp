/**
 * @file
 * Tests for the core model: think-time generation, in-order blocking,
 * OoO window behaviour, counters and DVFS scaling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <vector>

#include "sim/app_profile.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/event_queue.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace fastcap {
namespace {

AppProfile
steadyApp(double mpki, double cpi = 1.0, double wpki = 0.0)
{
    Phase p;
    p.instructions = 100e6;
    p.mpki = mpki;
    p.cpiExec = cpi;
    p.wpki = wpki;
    p.activity = 0.9;
    return AppProfile("steady", p);
}

/**
 * One core wired to a test-side memory: the fixture is the core's
 * request sink and, once autoRespond() is called, answers every read
 * a fixed latency later through its own events.
 */
struct Fixture : RequestSink, EventHandler
{
    explicit Fixture(double mpki, double cpi = 1.0, double wpki = 0.0,
                     ExecMode mode = ExecMode::InOrder)
        : Fixture(steadyApp(mpki, cpi, wpki), mode)
    {
    }

    Fixture(AppProfile profile, ExecMode mode)
        : cfg(SimConfig::defaultConfig(16)), app(std::move(profile))
    {
        cfg.execMode = mode;
        cfg.thinkJitterSigma = 0.0; // deterministic think times
        core = std::make_unique<Core>(0, cfg, queue, Rng(7));
        core->runApp(&app);
        core->requestSink(this);
    }

    /** Immediately satisfy every read after `latency`. */
    void autoRespond(Seconds latency) { respondAfter = latency; }

    void
    submit(Request r) override
    {
        submitted.push_back(r);
        if (r.type != RequestType::Read)
            return;
        ++reads;
        maxOutstanding = std::max(maxOutstanding, core->outstanding());
        if (respondAfter >= 0.0) {
            // A fixed latency keeps responses in submission order.
            responding.push_back(r);
            queue.scheduleAfter(respondAfter, *this);
        }
    }

    void
    onEvent(std::uint32_t, double) override
    {
        const Request r = responding.front();
        responding.pop_front();
        core->onDataReturn(r, queue.now());
    }

    SimConfig cfg;
    AppProfile app;
    EventQueue queue;
    std::unique_ptr<Core> core;
    std::vector<Request> submitted;
    std::uint64_t reads = 0;
    int maxOutstanding = 0;
    Seconds respondAfter = -1.0; //!< < 0: never respond
    std::deque<Request> responding;
};

TEST(Core, RequiresAppAndSinkBeforeStart)
{
    SimConfig cfg = SimConfig::defaultConfig(16);
    EventQueue q;
    Core lone(0, cfg, q, Rng(1));
    EXPECT_THROW(lone.start(), FatalError);
    AppProfile app = steadyApp(1.0);
    lone.runApp(&app);
    EXPECT_THROW(lone.start(), FatalError);
}

TEST(Core, InOrderBlocksOnMiss)
{
    Fixture f(10.0); // 100 instructions between misses
    f.core->start();
    f.queue.runUntil(10e-6);

    // Exactly one read issued; the core is stalled awaiting it.
    ASSERT_EQ(f.submitted.size(), 1u);
    EXPECT_TRUE(f.core->stalled());
    EXPECT_EQ(f.core->outstanding(), 1);
    EXPECT_EQ(f.core->counters().misses, 1u);

    // Think time: 100 instr * 1 cpi / 4 GHz = 25 ns (plus L2 delay
    // before the submit event).
    EXPECT_NEAR(f.core->counters().busyTime, 25e-9, 1e-12);
}

TEST(Core, ResumesAfterDataReturn)
{
    Fixture f(10.0);
    f.autoRespond(fromNs(50));
    f.core->start();
    f.queue.runUntil(100e-6);

    EXPECT_GT(f.submitted.size(), 100u);
    const CoreCounters &c = f.core->counters();
    EXPECT_EQ(c.misses, c.stalls) << "in-order: every miss stalls";
    EXPECT_GT(c.instructions, 10000u);
    // Turn-around: 25 ns think + 7.5 ns L2 + 50 ns latency ~ 82.5 ns
    // per 100 instructions.
    const double tpi = 100e-6 / static_cast<double>(c.instructions);
    EXPECT_NEAR(tpi, 82.5e-9 / 100.0, 0.15e-9);
}

TEST(Core, FrequencyScalesThinkTime)
{
    Fixture fast(10.0);
    fast.autoRespond(0.0);
    fast.core->start();
    fast.queue.runUntil(50e-6);
    const auto fast_instr = fast.core->counters().instructions;

    Fixture slow(10.0);
    slow.core->frequency(slow.cfg.coreLadder.min()); // 2.2 GHz
    slow.autoRespond(0.0);
    slow.core->start();
    slow.queue.runUntil(50e-6);
    const auto slow_instr = slow.core->counters().instructions;

    // With near-zero memory latency, rate ~ f / (cpi + L2 share).
    EXPECT_GT(fast_instr, slow_instr);
    const double ratio = static_cast<double>(fast_instr) /
        static_cast<double>(slow_instr);
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 4.0 / 2.2 + 0.2);
}

TEST(Core, WritebacksFollowWpkiRatio)
{
    Fixture f(10.0, 1.0, 5.0); // wpki/mpki = 0.5
    f.autoRespond(fromNs(10));
    f.core->start();
    f.queue.runUntil(200e-6);

    const CoreCounters &c = f.core->counters();
    ASSERT_GT(c.misses, 500u);
    const double ratio = static_cast<double>(c.writebacks) /
        static_cast<double>(c.misses);
    EXPECT_NEAR(ratio, 0.5, 0.08);
}

TEST(Core, WpkiAboveMpkiEmitsMultipleWritebacks)
{
    Fixture f(2.0, 1.0, 3.0); // 1.5 writebacks per miss
    f.autoRespond(fromNs(10));
    f.core->start();
    f.queue.runUntil(400e-6);
    const CoreCounters &c = f.core->counters();
    ASSERT_GT(c.misses, 100u);
    const double ratio = static_cast<double>(c.writebacks) /
        static_cast<double>(c.misses);
    EXPECT_NEAR(ratio, 1.5, 0.2);
}

TEST(Core, OutOfOrderOverlapsMisses)
{
    // MPKI 20 -> 50 instructions per miss; window 128 -> MLP 2.
    Fixture ooo(20.0, 1.0, 0.0, ExecMode::OutOfOrder);
    ooo.autoRespond(fromNs(200));
    ooo.core->start();
    ooo.queue.runUntil(200e-6);

    Fixture ino(20.0);
    ino.autoRespond(fromNs(200));
    ino.core->start();
    ino.queue.runUntil(200e-6);

    EXPECT_GT(ooo.core->counters().instructions,
              static_cast<std::uint64_t>(
                  1.3 * static_cast<double>(
                      ino.core->counters().instructions)))
        << "OoO must overlap memory latency with execution";
    EXPECT_LT(ooo.core->counters().stalls,
              ooo.core->counters().misses);
}

TEST(Core, OutOfOrderRespectsWindowBound)
{
    // MPKI 100 -> 10 instr/miss -> window-derived MLP = min(12.8, 8).
    Fixture f(100.0, 1.0, 0.0, ExecMode::OutOfOrder);
    // Never respond: outstanding only grows until the bound.
    f.core->start();
    f.queue.runUntil(100e-6);
    EXPECT_LE(f.maxOutstanding, f.cfg.oooMaxOutstanding);
    EXPECT_GE(f.maxOutstanding, 2);
    EXPECT_TRUE(f.core->stalled());
}

TEST(Core, CreditAdvancesPhasePosition)
{
    Fixture f(10.0);
    f.core->creditInstructions(5e6);
    EXPECT_DOUBLE_EQ(f.core->instructionsRetired(), 5e6);
    EXPECT_THROW(f.core->creditInstructions(-1.0), PanicError);
}

TEST(Core, NonPositiveOrNanFrequencyPanics)
{
    Fixture f(10.0);
    const Hertz before = f.core->frequency();
    EXPECT_THROW(f.core->frequency(0.0), PanicError);
    EXPECT_THROW(f.core->frequency(-1e9), PanicError);
    EXPECT_THROW(f.core->frequency(std::nan("")), PanicError);
    EXPECT_EQ(f.core->frequency(), before);
}

TEST(Core, FlushStallAccountsOpenStall)
{
    Fixture f(10.0);
    f.core->start();
    f.queue.runUntil(10e-6); // stalled, no response ever
    ASSERT_TRUE(f.core->stalled());
    const Seconds before = f.core->counters().stallTime;
    f.core->flushStall(10e-6);
    EXPECT_GT(f.core->counters().stallTime, before);
    EXPECT_NEAR(f.core->counters().stallTime + f.core->counters().busyTime,
                10e-6, 0.2e-6);
}

TEST(Core, CountersResetIsClean)
{
    Fixture f(10.0);
    f.autoRespond(fromNs(10));
    f.core->start();
    f.queue.runUntil(20e-6);
    f.core->resetCounters();
    const CoreCounters &c = f.core->counters();
    EXPECT_EQ(c.instructions, 0u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_DOUBLE_EQ(c.busyTime, 0.0);
    // Cumulative retirement is preserved.
    EXPECT_GT(f.core->instructionsRetired(), 0.0);
}

TEST(Core, PhaseChangeAltersMissRate)
{
    // Two phases: sparse then dense misses.
    std::vector<Phase> phases;
    Phase a;
    a.instructions = 50e3;
    a.mpki = 1.0;
    a.cpiExec = 1.0;
    a.wpki = 0.0;
    Phase b = a;
    b.instructions = 50e3;
    b.mpki = 50.0;
    phases.push_back(a);
    phases.push_back(b);
    Fixture f(AppProfile("phasey", phases), ExecMode::InOrder);
    f.autoRespond(1e-9);
    f.core->start();

    // Run until well into phase b and compare instantaneous rates.
    f.queue.runUntil(30e-6); // ~phase a territory (50k instr ~ 12.5us+stall)
    const std::uint64_t reads_a = f.reads;
    const double instr_a = f.core->instructionsRetired();
    f.queue.runUntil(60e-6);
    const std::uint64_t reads_b = f.reads - reads_a;
    const double instr_b = f.core->instructionsRetired() - instr_a;
    ASSERT_GT(instr_b, 0.0);
    const double mpki_a = 1000.0 * static_cast<double>(reads_a) /
        instr_a;
    const double mpki_b = 1000.0 * static_cast<double>(reads_b) /
        instr_b;
    EXPECT_GT(mpki_b, mpki_a) << "later window covers the dense phase";
}

} // namespace
} // namespace fastcap
