/**
 * @file
 * Tests for the memory subsystem: bank queues, the FCFS bus, transfer
 * blocking (the paper's Figure 1 property), counters (Q, U, s_m) and
 * memory DVFS.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/memory_bank.hpp"
#include "sim/memory_bus.hpp"
#include "sim/memory_controller.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace fastcap {
namespace {

Request
makeRead(int core)
{
    Request r;
    r.type = RequestType::Read;
    r.coreId = core;
    return r;
}

TEST(RequestFifo, GrowsAcrossWrapInFifoOrder)
{
    // Wrap the head around the initial ring, then grow while wrapped:
    // order must survive both.
    RequestFifo fifo;
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 6; ++i)
            fifo.push(makeRead(next_in++));
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(fifo.pop().coreId, next_out++);
    }
    for (int i = 0; i < 40; ++i)
        fifo.push(makeRead(next_in++));
    EXPECT_EQ(fifo.size(), static_cast<std::size_t>(next_in - next_out));
    EXPECT_EQ(fifo.front().coreId, next_out);
    while (!fifo.empty())
        EXPECT_EQ(fifo.pop().coreId, next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(MemoryBank, EnqueueReportsDepthIncludingService)
{
    MemoryBank bank(0);
    EXPECT_EQ(bank.enqueue(makeRead(0)), 1u);
    EXPECT_EQ(bank.enqueue(makeRead(1)), 2u);
    ASSERT_TRUE(bank.canStart());
    bank.startService(0.0);
    // One serving + one waiting.
    EXPECT_EQ(bank.depth(), 2u);
    EXPECT_EQ(bank.enqueue(makeRead(2)), 3u);
}

TEST(MemoryBank, TransferBlockingLifecycle)
{
    MemoryBank bank(3);
    bank.enqueue(makeRead(0));
    bank.enqueue(makeRead(1));

    ASSERT_TRUE(bank.canStart());
    bank.startService(0.0);
    EXPECT_FALSE(bank.canStart()) << "busy bank cannot start another";

    const Request done = bank.finishService(10e-9);
    EXPECT_EQ(done.coreId, 0);
    // Transfer blocking: service finished, but the bank may NOT start
    // the next request until its transfer completes.
    EXPECT_TRUE(bank.blocked());
    EXPECT_FALSE(bank.canStart());

    bank.unblock();
    EXPECT_TRUE(bank.canStart());
    bank.startService(20e-9);
    const Request second = bank.finishService(30e-9);
    EXPECT_EQ(second.coreId, 1);
}

TEST(MemoryBank, BusyTimeAccumulates)
{
    MemoryBank bank(0);
    bank.enqueue(makeRead(0));
    bank.startService(5e-9);
    bank.finishService(25e-9);
    EXPECT_NEAR(bank.busyTime(), 20e-9, 1e-15);
    bank.resetBusyTime();
    EXPECT_DOUBLE_EQ(bank.busyTime(), 0.0);
}

TEST(MemoryBus, FcfsOrderAndUSample)
{
    MemoryBus bus;
    EXPECT_TRUE(bus.idle());
    // U sample: queue length after insertion including the arrival.
    EXPECT_EQ(bus.enqueue(makeRead(0)), 1u);
    EXPECT_EQ(bus.enqueue(makeRead(1)), 2u);

    ASSERT_TRUE(bus.canStart());
    bus.startTransfer(0.0);
    EXPECT_FALSE(bus.canStart()) << "single transfer at a time";
    EXPECT_EQ(bus.queued(), 1u) << "the transfer is not waiting";
    EXPECT_EQ(bus.finishTransfer(5e-9).coreId, 0);
    bus.startTransfer(5e-9);
    EXPECT_EQ(bus.finishTransfer(10e-9).coreId, 1);
    EXPECT_NEAR(bus.busyTime(), 10e-9, 1e-15);
}

/** Counts delivered reads. */
struct CountingSink : DeliverySink
{
    void onDataReturn(const Request &, Seconds) override { ++done; }

    std::size_t done = 0;
};

class ControllerTest : public ::testing::Test, public DeliverySink
{
  protected:
    ControllerTest()
    {
        cfg = SimConfig::defaultConfig(16);
        cfg.banksPerController = 4;
        ctrl = std::make_unique<MemoryController>(0, cfg, queue,
                                                  Rng(42));
        ctrl->deliverySink(this);
    }

    void
    onDataReturn(const Request &req, Seconds now) override
    {
        delivered.push_back({req.coreId, now});
    }

    SimConfig cfg;
    EventQueue queue;
    std::unique_ptr<MemoryController> ctrl;
    std::vector<std::pair<int, Seconds>> delivered;
};

TEST_F(ControllerTest, SingleRequestRoundTrip)
{
    ctrl->submit(makeRead(7));
    queue.runUntil(1e-6);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].first, 7);
    // Response = bank service + bus transfer; bounded sensibly.
    EXPECT_GE(delivered[0].second, cfg.bankRowHitTime);
    EXPECT_LE(delivered[0].second,
              cfg.bankRowMissTime + 10 * ctrl->transferTime());
    EXPECT_EQ(ctrl->inFlight(), 0u);
}

TEST_F(ControllerTest, AllRequestsEventuallyComplete)
{
    for (int i = 0; i < 200; ++i)
        ctrl->submit(makeRead(i % 16));
    queue.runUntil(1e-3);
    EXPECT_EQ(delivered.size(), 200u);
    EXPECT_EQ(ctrl->inFlight(), 0u);
    EXPECT_EQ(ctrl->counters().reads, 200u);
}

TEST_F(ControllerTest, WritebacksOccupyButDoNotDeliver)
{
    Request wb;
    wb.type = RequestType::Writeback;
    wb.coreId = 3;
    ctrl->submit(wb);
    ctrl->submit(makeRead(4));
    queue.runUntil(1e-3);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].first, 4);
    EXPECT_EQ(ctrl->counters().writebacks, 1u);
    EXPECT_EQ(ctrl->counters().reads, 1u);
    EXPECT_EQ(ctrl->inFlight(), 0u);
}

TEST_F(ControllerTest, QSamplesGrowWithBacklog)
{
    // Dump many requests at once: later arrivals see deeper queues.
    for (int i = 0; i < 64; ++i)
        ctrl->submit(makeRead(0));
    const double q = ctrl->counters().meanQ();
    EXPECT_GT(q, 2.0) << "burst arrivals must observe queueing";
    queue.runUntil(1e-3);
}

TEST_F(ControllerTest, ResponseTimeGrowsUnderLoad)
{
    // Single isolated request.
    ctrl->submit(makeRead(0));
    queue.runUntil(1e-3);
    const Seconds lone = delivered[0].second;

    // Fresh burst: last delivery far later than the isolated one.
    delivered.clear();
    ctrl->resetCounters();
    for (int i = 0; i < 64; ++i)
        ctrl->submit(makeRead(1));
    const Seconds start = queue.now();
    queue.runUntil(start + 1e-3);
    ASSERT_EQ(delivered.size(), 64u);
    EXPECT_GT(delivered.back().second - start, 3.0 * lone);
    const ControllerCounters &c = ctrl->counters();
    ASSERT_GT(c.responseCount, 0u);
    EXPECT_GT(c.responseSum / static_cast<double>(c.responseCount), lone);
}

TEST_F(ControllerTest, TransferTimeScalesWithFrequency)
{
    const Seconds fast = ctrl->transferTime();
    ctrl->busFrequency(cfg.memLadder.min());
    const Seconds slow = ctrl->transferTime();
    EXPECT_NEAR(slow / fast, cfg.memLadder.max() / cfg.memLadder.min(),
                1e-9);
}

TEST_F(ControllerTest, NonPositiveOrNanBusSettingsPanic)
{
    const Seconds before = ctrl->transferTime();
    for (double bad : {0.0, -1.0, std::nan("")}) {
        EXPECT_THROW(ctrl->busFrequency(bad), PanicError) << bad;
        EXPECT_THROW(ctrl->busBurstCycles(bad), PanicError) << bad;
    }
    EXPECT_EQ(ctrl->transferTime(), before);
}

TEST_F(ControllerTest, LowerFrequencyReducesThroughputUnderSaturation)
{
    // Use a single-channel bus (6 cycles per line) so the bus — not
    // the banks — is the bottleneck, then saturate and compare
    // completions in a fixed window at max vs min frequency.
    SimConfig narrow = cfg;
    narrow.busBurstCycles = 6.0;
    EventQueue q2;
    MemoryController bus_bound(1, narrow, q2, Rng(7));
    CountingSink fast_sink;
    bus_bound.deliverySink(&fast_sink);

    for (int i = 0; i < 2000; ++i)
        bus_bound.submit(makeRead(0));
    q2.runUntil(q2.now() + 20e-6);
    const std::size_t fast_done = fast_sink.done;

    EventQueue q3;
    MemoryController slow_ctl(2, narrow, q3, Rng(7));
    CountingSink slow_sink;
    slow_ctl.deliverySink(&slow_sink);
    slow_ctl.busFrequency(narrow.memLadder.min());
    for (int i = 0; i < 2000; ++i)
        slow_ctl.submit(makeRead(0));
    q3.runUntil(q3.now() + 20e-6);
    const std::size_t slow_done = slow_sink.done;

    EXPECT_LT(slow_done, fast_done);
    EXPECT_GT(slow_done, 0u);
}

TEST_F(ControllerTest, CountersResetPreservesInFlight)
{
    for (int i = 0; i < 10; ++i)
        ctrl->submit(makeRead(0));
    const std::uint64_t inflight = ctrl->inFlight();
    ctrl->resetCounters();
    EXPECT_EQ(ctrl->inFlight(), inflight)
        << "reset clears measurements, not queue state";
    EXPECT_EQ(ctrl->counters().reads, 0u);
    queue.runUntil(1e-3);
    EXPECT_EQ(ctrl->inFlight(), 0u);
}

TEST_F(ControllerTest, ServiceTimesWithinConfiguredBounds)
{
    for (int i = 0; i < 100; ++i)
        ctrl->submit(makeRead(0));
    queue.runUntil(1e-3);
    const auto &c = ctrl->finalizeWindow();
    const Seconds sm = c.meanServiceTime(0.0);
    EXPECT_GE(sm, cfg.bankRowHitTime);
    EXPECT_LE(sm, cfg.bankRowMissTime);
    EXPECT_GT(c.bankBusyTime, 0.0);
    EXPECT_GT(c.busBusyTime, 0.0);
}

} // namespace
} // namespace fastcap
