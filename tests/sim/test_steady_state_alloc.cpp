/**
 * @file
 * The DES hot path allocates nothing per event: once warm-up windows
 * have grown the event heap and the bank/bus rings to their working
 * size, a window allocates the same number of times whatever its
 * length. Both engines are checked; the sharded case also checks that
 * its lanes resolve idle thinks inline (about one event per miss).
 *
 * This suite replaces the global operator new to count allocations,
 * so it must stay a gtest binary of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/config.hpp"
#include "sim/engine/sharded_system.hpp"
#include "sim/system.hpp"
#include "workload/spec_table.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace fastcap {
namespace {

/** Demand misses issued by every core in one window. */
std::uint64_t
missesOf(const WindowStats &stats)
{
    std::uint64_t misses = 0;
    for (const CoreWindowStats &c : stats.cores)
        misses += c.counters.misses;
    return misses;
}

/** Allocations made by one runWindow(duration) call; adds the
 *  window's misses to `misses`. */
template <class System>
std::uint64_t
allocationsOfWindow(System &sys, Seconds duration, std::uint64_t &misses)
{
    const std::uint64_t before = g_allocations.load();
    const WindowStats stats = sys.runWindow(duration);
    const std::uint64_t after = g_allocations.load();
    EXPECT_GT(stats.cores.front().counters.misses, 0u);
    misses += missesOf(stats);
    return after - before;
}

/** @return the demand misses of every window it ran. */
template <class System>
std::uint64_t
expectLengthIndependentAllocations(System &sys)
{
    // Warm-up, longer than either measured window: the event heap and
    // the bank/bus rings grow to their working size here. It is cut
    // into many windows because a sharded lane only takes events, and
    // so only grows its heap and rings, when a miss chain crosses a
    // window end or its requests contend.
    std::uint64_t misses = 0;
    for (int w = 0; w < 16; ++w)
        misses += missesOf(sys.runWindow(0.25e-3));
    const std::uint64_t short_window =
        allocationsOfWindow(sys, 0.4e-3, misses);
    const std::uint64_t long_window =
        allocationsOfWindow(sys, 2e-3, misses);
    EXPECT_EQ(short_window, long_window)
        << "a longer window must not allocate more: something "
           "allocates per event";
    EXPECT_GT(sys.eventsProcessed(), 20000u);
    return misses;
}

TEST(SteadyStateAllocation, ShardedWindowAllocatesIndependentOfLength)
{
    // Four shards of 16 lanes, then one lane per shard: every lane's
    // own event heap must reach its working size in the warm-up.
    for (int shards : {4, 64}) {
        ShardedSystem sys(SimConfig::defaultConfig(64),
                          workloads::mix("MIX1", 64), shards, 1);
        const std::uint64_t misses =
            expectLengthIndependentAllocations(sys);
        // The lane fast path fires: a think that meets an empty
        // controller costs one dispatched event instead of four
        // (think, L2 hop, bank done, transfer done), or six with a
        // writeback.
        EXPECT_LT(static_cast<double>(sys.eventsProcessed()),
                  1.1 * static_cast<double>(misses))
            << "the lane fast path no longer resolves idle thinks";
    }
}

TEST(SteadyStateAllocation, MonolithicWindowAllocatesIndependentOfLength)
{
    ManyCoreSystem sys(SimConfig::defaultConfig(64),
                       workloads::mix("MIX1", 64));
    expectLengthIndependentAllocations(sys);
}

} // namespace
} // namespace fastcap
