/**
 * @file
 * Deterministic trace replay onto a simulated machine.
 *
 * The replayer consumes a TraceSource one event at a time and turns
 * job arrivals/completions into swapApp() calls at epoch boundaries,
 * through a caller-supplied callback — it never touches the engine
 * directly, so the trace layer stays below the simulator in the
 * dependency order and the same replayer drives monolithic and
 * sharded backends identically.
 *
 * Placement is a pure function of the trace: jobs are admitted FIFO
 * (head-of-line blocking, no backfilling) onto the lowest-index free
 * cores, departures free cores in (end-time, admission-order) order,
 * and arrivals that find the pending queue full are shed and
 * counted. No randomness, no wall-clock, no iteration-order
 * dependence — replaying a trace is byte-identical across shard and
 * thread counts, which the determinism suite pins.
 */

#ifndef FASTCAP_TRACE_TRACE_REPLAY_HPP
#define FASTCAP_TRACE_TRACE_REPLAY_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "sim/app_profile.hpp"
#include "trace/trace_reader.hpp"
#include "util/units.hpp"

namespace fastcap {

namespace telemetry {
class Registry;
} // namespace telemetry

/** Replay counters (cumulative over the run). */
struct TraceReplayStats
{
    std::size_t arrivals = 0;  //!< events consumed from the source
    std::size_t dropped = 0;   //!< shed: pending queue was full
    std::size_t placed = 0;    //!< jobs that reached cores
    std::size_t completed = 0; //!< jobs whose cores were freed
    std::size_t peakPending = 0;
    std::size_t peakRunning = 0; //!< peak busy-core count
};

/**
 * Streams a trace onto `numCores` cores through a swap callback.
 *
 * advanceTo(now, swap) applies, in chronological order, every
 * departure and arrival up to virtual time `now`; call it with
 * non-decreasing times (epoch boundaries). Memory is bounded by the
 * machine: at most one read-ahead event, `maxPending` queued jobs
 * and one running record per busy core — never the trace length.
 */
class TraceReplayer
{
  public:
    using SwapFn = std::function<void(int core, const AppProfile &)>;

    /**
     * @param source      event stream (owned)
     * @param num_cores   cores of the driven machine
     * @param max_pending pending-queue bound before shedding
     *                    (0 = 4 * num_cores)
     * @param registry    where the /trace counters go (null = off)
     */
    TraceReplayer(std::unique_ptr<TraceSource> source, int num_cores,
                  std::size_t max_pending = 0,
                  telemetry::Registry *registry = nullptr);

    /** Apply all departures and arrivals with time <= now. */
    void advanceTo(Seconds now, const SwapFn &swap);

    /** Source drained, nothing running and nothing pending. */
    bool idle() const;

    const TraceReplayStats &stats() const { return _stats; }
    std::size_t running() const { return _running.size(); }
    std::size_t pending() const { return _pending.size(); }
    /** Cores currently occupied by placed jobs. */
    int
    busyCores() const
    {
        return _numCores - static_cast<int>(_freeCores.size());
    }
    /** Summed core demand of the pending (admitted, unplaced) jobs. */
    int backlogCores() const { return _backlogCores; }

  private:
    struct Job
    {
        Seconds end = 0.0;
        std::uint64_t seq = 0; //!< admission order (tie-break)
        std::vector<int> cores;
    };
    /** Min-heap by (end time, admission order). */
    struct JobAfter
    {
        bool
        operator()(const Job &a, const Job &b) const
        {
            if (a.end != b.end)
                return a.end > b.end;
            return a.seq > b.seq;
        }
    };

    void fetch();
    void admit(Seconds t, const SwapFn &swap);
    void drainPending(Seconds t, const SwapFn &swap);

    std::unique_ptr<TraceSource> _src;
    telemetry::Registry *_registry = nullptr;
    int _numCores = 0;
    std::size_t _maxPending = 0;
    TraceEvent _next;
    bool _haveNext = false;
    /**
     * The source had no event at the last poll. Unlike an EOF latch,
     * this is re-checked on every advanceTo(): push-fed sources (the
     * cluster dispatcher's per-machine queues) legitimately alternate
     * between empty and non-empty, and a file source just keeps
     * answering "no".
     */
    bool _srcDone = false;
    std::uint64_t _seq = 0;
    int _backlogCores = 0; //!< summed core demand of _pending
    std::set<int> _freeCores; //!< ordered: lowest index first
    std::priority_queue<Job, std::vector<Job>, JobAfter> _running;
    std::deque<TraceEvent> _pending;
    TraceReplayStats _stats;
};

} // namespace fastcap

#endif // FASTCAP_TRACE_TRACE_REPLAY_HPP
