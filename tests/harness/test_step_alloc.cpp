/**
 * @file
 * A warm epoch of a sharded 1024-core run allocates a bounded number
 * of times, not a few times per core: the policy inputs are rebuilt
 * in place, the solver groups cores into classes through a flat table
 * and the ladder mapping keeps no per-core memo.
 *
 * This suite replaces the global operator new to count allocations,
 * so it must stay a gtest binary of its own.
 */

#include <gtest/gtest.h>

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

TEST(StepAllocation, Warm1024CoreStepAllocatesFewTimes)
{
    constexpr int kCores = 1024;
    ExperimentConfig cfg;
    cfg.budgetFraction = 0.6;
    cfg.targetInstructions = 1e12; // epoch-bounded, no completions
    cfg.maxEpochs = 10;
    cfg.shards = 0;                // auto: sharded above 64 cores
    cfg.shardThreads = 1;          // no pool threads allocating

    FastCapPolicy policy;
    ExperimentRunner runner(SimConfig::defaultConfig(kCores),
                            workloads::mix("MIX1", kCores), policy, cfg);
    for (int e = 0; e < 3; ++e)
        runner.step();

    const std::uint64_t before = g_allocations.load();
    const EpochRecord rec = runner.step();
    const std::uint64_t allocations = g_allocations.load() - before;

    EXPECT_EQ(rec.coreFreqIdx.size(), static_cast<std::size_t>(kCores));
    // 77 on x86-64 Linux with libstdc++ (the window stats, the
    // decision and its classes, the record); the rest is margin.
    EXPECT_LT(allocations, 90u)
        << "a warm step allocates per core again";
}

} // namespace
} // namespace fastcap
