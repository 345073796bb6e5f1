/**
 * @file
 * A warm epoch of a sharded 1024-core run allocates a bounded number
 * of times, not a few times per core: the policy inputs are rebuilt
 * in place, the solver groups cores into classes through a flat table
 * and the ladder mapping keeps no per-core memo. And warm epochs
 * free all they allocate: the runner keeps no per-epoch record, so a
 * long run's memory stays flat.
 *
 * This suite replaces the global operator new to count allocations
 * and the bytes they hold, so it must stay a gtest binary of its own.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/fastcap_policy.hpp"
#include "harness/experiment.hpp"
#include "sim/config.hpp"
#include "workload/spec_table.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
/** Bytes operator new handed out and operator delete has not freed
 *  yet, as malloc sized the blocks. */
std::atomic<std::int64_t> g_liveBytes{0};

void
release(void *p) noexcept
{
    if (p != nullptr)
        g_liveBytes.fetch_sub(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1)) {
        g_liveBytes.fetch_add(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }

namespace fastcap {
namespace {

constexpr int kCores = 1024;

/** A sharded 1024-core MIX1 run that never completes. */
ExperimentConfig
warmConfig()
{
    ExperimentConfig cfg;
    cfg.budgetFraction = 0.6;
    cfg.targetInstructions = 1e12; // epoch-bounded, no completions
    cfg.maxEpochs = 20;
    cfg.shards = 0;                // auto: sharded above 64 cores
    cfg.shardThreads = 1;          // no pool threads allocating
    return cfg;
}

TEST(StepAllocation, Warm1024CoreStepAllocatesFewTimes)
{
    FastCapPolicy policy;
    ExperimentRunner runner(SimConfig::defaultConfig(kCores),
                            workloads::mix("MIX1", kCores), policy,
                            warmConfig());
    for (int e = 0; e < 3; ++e)
        runner.step();

    const std::uint64_t before = g_allocations.load();
    const EpochRecord rec = runner.step();
    const std::uint64_t allocations = g_allocations.load() - before;

    EXPECT_EQ(rec.coreFreqIdx.size(), static_cast<std::size_t>(kCores));
    // 73 on x86-64 Linux with libstdc++ (the window stats, the
    // decision and its classes, the record); the rest is margin.
    EXPECT_LT(allocations, 80u)
        << "a warm step allocates per core again";
}

TEST(StepAllocation, WarmStepsLeaveNoNetAllocation)
{
    FastCapPolicy policy;
    ExperimentRunner runner(SimConfig::defaultConfig(kCores),
                            workloads::mix("MIX1", kCores), policy,
                            warmConfig());
    // The lanes' queues and bank queues reach their largest sizes in
    // the first few epochs.
    for (int e = 0; e < 6; ++e)
        runner.step();

    const std::int64_t before = g_liveBytes.load();
    for (int e = 0; e < 10; ++e)
        runner.step();
    EXPECT_EQ(g_liveBytes.load() - before, 0)
        << "warm steps keep what they allocate";
}

} // namespace
} // namespace fastcap
