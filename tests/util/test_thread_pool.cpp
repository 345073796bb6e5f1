/**
 * @file
 * Tests for the worker pool: job execution, batch wait semantics,
 * reuse across batches, exception propagation and shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace fastcap {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitBlocksUntilBatchFinishes)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++done;
        });
    pool.wait();
    EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 5; ++batch) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (batch + 1) * 10);
    }
}

TEST(ThreadPool, ResultsLandInPreallocatedSlots)
{
    // The sweep-runner pattern: each job writes only its own index.
    const std::size_t n = 64;
    std::vector<int> out(n, -1);
    ThreadPool pool(8);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&out, i] { out[i] = static_cast<int>(i) * 3; });
    pool.wait();
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(ThreadPool, WaitRethrowsFirstJobException)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 4; ++i)
        pool.submit([&ran] { ++ran; });
    pool.submit([] { fatal("job failed on purpose"); });
    EXPECT_THROW(pool.wait(), FatalError);
    // The pool survives a failed batch.
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPool, JobsMaySubmitMoreJobs)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&pool, &count] {
        ++count;
        for (int i = 0; i < 4; ++i)
            pool.submit([&count] { ++count; });
    });
    pool.wait();
    EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    // hardwareWorkers() jobs that each wait until all of them run at
    // once finish in time only with at least that many workers.
    const std::size_t n = ThreadPool::hardwareWorkers();
    ASSERT_GE(n, 1u);
    ThreadPool pool(0);
    std::atomic<std::size_t> running{0};
    std::atomic<bool> all_met{true};
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&running, &all_met, n] {
            ++running;
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (running.load() < n) {
                if (std::chrono::steady_clock::now() > deadline) {
                    all_met = false;
                    return;
                }
                std::this_thread::yield();
            }
        });
    pool.wait();
    EXPECT_TRUE(all_met.load());
}

TEST(ThreadPool, WorkersForIsAtMostOnePerJobAndAtLeastOne)
{
    // Only counts: no pool is built.
    EXPECT_EQ(ThreadPool::workersFor(8, 2), 2u);
    EXPECT_EQ(ThreadPool::workersFor(3, 100), 3u);
    EXPECT_EQ(ThreadPool::workersFor(0, 100000),
              ThreadPool::hardwareWorkers());
    EXPECT_EQ(ThreadPool::workersFor(0, 1), 1u);
    EXPECT_EQ(ThreadPool::workersFor(4, 0), 1u);
    EXPECT_THROW(ThreadPool::workersFor(-1, 4), PanicError);
}

TEST(ThreadPool, EmptyJobPanics)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.submit(ThreadPool::Job()), PanicError);
}

TEST(ThreadPool, DestructionDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 20; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): the destructor must still run everything.
    }
    EXPECT_EQ(count.load(), 20);
}

} // namespace
} // namespace fastcap
