#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "util/wallclock.hpp"

namespace fastcap {

namespace {

/** Shared log-spaced µs edges for the pool latency histograms. */
const std::vector<double> &
latencyEdgesUs()
{
    static const std::vector<double> edges{1.0,   10.0,  100.0, 1e3,
                                           1e4,   1e5,   1e6};
    return edges;
}

} // namespace

std::size_t
ThreadPool::hardwareWorkers()
{
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t
ThreadPool::workersFor(int requested, std::size_t jobs)
{
    if (requested < 0)
        panic("ThreadPool::workersFor: negative worker count %d",
              requested);
    const std::size_t want = requested > 0
        ? static_cast<std::size_t>(requested)
        : hardwareWorkers();
    return std::max<std::size_t>(1, std::min(want, jobs));
}

ThreadPool::ThreadPool(std::size_t workers,
                       telemetry::Registry *registry)
{
    if (registry != nullptr) {
        _tasks = &registry->counter("/wall/pool/tasks");
        _queueDepthHwm = &registry->gauge("/wall/pool/queue_depth_hwm");
        _waitUs = &registry->histogram("/wall/pool/wait_us",
                                       latencyEdgesUs());
        _runUs = &registry->histogram("/wall/pool/run_us",
                                      latencyEdgesUs());
    }
    if (workers == 0)
        workers = hardwareWorkers();
    _workers.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        LockGuard lock(_mu);
        _stopping = true;
    }
    _wake.notify_all();
    for (std::thread &t : _workers)
        t.join();
}

void
ThreadPool::submit(Job job)
{
    if (!job)
        panic("ThreadPool::submit: empty job");
    double now_s = 0.0;
    if (_waitUs != nullptr) {
        // fastcap-lint: wall-clock(pool wait-time telemetry stamp, operator-facing metrics only, never serialized into results)
        now_s = wallSeconds();
    }
    std::size_t depth = 0;
    {
        LockGuard lock(_mu);
        if (_stopping)
            panic("ThreadPool::submit: pool is shutting down");
        _jobs.push_back(Task{std::move(job), now_s});
        depth = _jobs.size();
    }
    if (_queueDepthHwm != nullptr)
        _queueDepthHwm->setMax(static_cast<double>(depth));
    _wake.notify_one();
}

// The two condition-variable loops below hand the lock back and
// forth through cv waits and manual unlock/relock, which clang's
// function-at-a-time analysis cannot follow (the wait predicates are
// separate lambdas to it); they opt out explicitly. Every other
// access to the guarded members is checked.
void
ThreadPool::wait() FASTCAP_NO_THREAD_SAFETY_ANALYSIS
{
    UniqueLock lock(_mu);
    _idle.wait(lock, [this] { return _jobs.empty() && _active == 0; });
    if (_firstError) {
        std::exception_ptr err = std::exchange(_firstError, nullptr);
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop() FASTCAP_NO_THREAD_SAFETY_ANALYSIS
{
    UniqueLock lock(_mu);
    for (;;) {
        _wake.wait(lock,
                   [this] { return _stopping || !_jobs.empty(); });
        if (_jobs.empty()) // stopping and drained
            return;
        Task task = std::move(_jobs.front());
        _jobs.pop_front();
        ++_active;
        lock.unlock();
        double run_t0 = 0.0;
        if (_waitUs != nullptr) {
            // fastcap-lint: wall-clock(pool latency telemetry, operator-facing metrics only, never serialized into results)
            run_t0 = wallSeconds();
            if (task.enqueued_s > 0.0)
                _waitUs->observe((run_t0 - task.enqueued_s) * 1e6);
        }
        try {
            task.job();
        } catch (...) {
            lock.lock();
            if (!_firstError)
                _firstError = std::current_exception();
            --_active;
            if (_jobs.empty() && _active == 0)
                _idle.notify_all();
            continue;
        }
        if (_runUs != nullptr && run_t0 > 0.0) {
            // fastcap-lint: wall-clock(pool run-time telemetry, operator-facing metrics only, never serialized into results)
            _runUs->observe((wallSeconds() - run_t0) * 1e6);
            _tasks->add();
        }
        lock.lock();
        --_active;
        if (_jobs.empty() && _active == 0)
            _idle.notify_all();
    }
}

} // namespace fastcap
