/**
 * @file
 * Fixed-size worker pool for fanning independent jobs out over
 * threads. Built for the sweep runner: submit every grid point, then
 * wait() for the batch. Determinism is the caller's responsibility —
 * jobs must not share mutable state, and each job's output must
 * depend only on its own inputs (the sweep derives a per-run seed
 * for exactly this reason).
 */

#ifndef FASTCAP_UTIL_THREAD_POOL_HPP
#define FASTCAP_UTIL_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace fastcap {

namespace telemetry {
class Counter;
class Gauge;
class Histogram;
class Registry;
} // namespace telemetry

/**
 * A fixed set of worker threads draining a FIFO job queue.
 *
 * Usage:
 *   ThreadPool pool(8);
 *   for (std::size_t i = 0; i < n; ++i)
 *       pool.submit([i, &out] { out[i] = compute(i); });
 *   pool.wait();   // rethrows the first job exception, if any
 *
 * The pool is reusable: submit/wait cycles may repeat. Destruction
 * joins the workers after the queue drains.
 */
class ThreadPool
{
  public:
    using Job = std::function<void()>;

    /**
     * @param workers  worker count; 0 means hardwareWorkers().
     * @param registry where the pool publishes its wall-clock
     *                 metrics, under /wall/pool; null = off.
     */
    explicit ThreadPool(std::size_t workers = 0,
                        telemetry::Registry *registry = nullptr);

    /** Drains remaining jobs, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job. Jobs may themselves submit more jobs. */
    void submit(Job job);

    /**
     * Block until every submitted job has finished. If any job threw,
     * rethrows the first exception (by submission-drain order) and
     * discards the rest.
     */
    void wait();

    /** std::thread::hardware_concurrency with a floor of 1. */
    static std::size_t hardwareWorkers();

    /**
     * Workers for `jobs` jobs whose results do not depend on the
     * worker count, when `requested` were asked for (0 =
     * hardwareWorkers()): at most one per job, at least one. A
     * negative request is a library bug (callers reject it) and
     * panics.
     */
    static std::size_t workersFor(int requested, std::size_t jobs);

  private:
    /**
     * Queue entry. `enqueued_s` is a wall-clock stamp taken only when
     * the pool has a registry (0 otherwise); it feeds the
     * /wall/pool/wait_us histogram and never influences scheduling.
     */
    struct Task
    {
        Job job;
        double enqueued_s = 0.0;
    };

    void workerLoop();

    // Wall-clock metric handles, all null without a registry.
    telemetry::Counter *_tasks = nullptr;
    telemetry::Gauge *_queueDepthHwm = nullptr;
    telemetry::Histogram *_waitUs = nullptr;
    telemetry::Histogram *_runUs = nullptr;

    std::vector<std::thread> _workers;
    // _mu guards the queue and the wait() barrier state below; this
    // is also the barrier the sharded engine's window determinism
    // rests on (ShardedSystem::runWindow merges only after wait()
    // returns, i.e. strictly after every shard job's effects are
    // published by the release/acquire pair on _mu).
    mutable Mutex _mu;
    std::deque<Task> _jobs FASTCAP_GUARDED_BY(_mu);
    // condition_variable_any: waits directly on the annotated Mutex.
    std::condition_variable_any _wake; //!< signals workers: job or stop
    std::condition_variable_any _idle; //!< signals wait(): batch done
    std::size_t _active FASTCAP_GUARDED_BY(_mu) = 0;
    bool _stopping FASTCAP_GUARDED_BY(_mu) = false;
    std::exception_ptr _firstError FASTCAP_GUARDED_BY(_mu);
};

} // namespace fastcap

#endif // FASTCAP_UTIL_THREAD_POOL_HPP
