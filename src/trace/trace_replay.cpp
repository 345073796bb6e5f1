#include "trace/trace_replay.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {

namespace {
constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
} // namespace

TraceReplayer::TraceReplayer(std::unique_ptr<TraceSource> source,
                             int num_cores, std::size_t max_pending,
                             telemetry::Registry *registry)
    : _src(std::move(source)), _registry(registry), _numCores(num_cores),
      _maxPending(max_pending != 0
                      ? max_pending
                      : 4 * static_cast<std::size_t>(
                                std::max(num_cores, 1)))
{
    if (_src == nullptr)
        fatal("TraceReplayer: null trace source");
    if (_numCores < 1)
        fatal("TraceReplayer: core count %d must be >= 1", _numCores);
    for (int i = 0; i < _numCores; ++i)
        _freeCores.insert(i);
}

void
TraceReplayer::fetch()
{
    // Re-poll an exhausted source rather than latching EOF: a file
    // source keeps returning false (TraceReader tolerates reads past
    // the end), while a push-fed queue source may have new events
    // since the last poll.
    if (_haveNext)
        return;
    if (_src->next(_next)) {
        _haveNext = true;
        _srcDone = false;
    } else {
        _srcDone = true;
    }
}

bool
TraceReplayer::idle() const
{
    return _srcDone && !_haveNext && _running.empty() &&
        _pending.empty();
}

void
TraceReplayer::advanceTo(Seconds now, const SwapFn &swap)
{
    fetch();
    for (;;) {
        const Seconds dep = _running.empty() ? kNever
                                             : _running.top().end;
        const Seconds arr = _haveNext ? _next.arrival : kNever;
        const Seconds t = std::min(dep, arr);
        if (t > now || t == kNever)
            break;
        // Departures first at equal times: a core freed at t can be
        // taken by a job arriving at t.
        if (dep <= arr) {
            const Job job = _running.top();
            _running.pop();
            for (const int core : job.cores) {
                swap(core, workloads::idleProfile());
                _freeCores.insert(core);
            }
            ++_stats.completed;
            drainPending(dep, swap);
        } else {
            admit(arr, swap);
        }
    }
}

void
TraceReplayer::admit(Seconds t, const SwapFn &swap)
{
    if (_next.cores > _numCores)
        fatal("TraceReplayer: %s: job at t=%g demands %d cores but "
              "the machine has %d", _src->name().c_str(),
              _next.arrival, _next.cores, _numCores);
    ++_stats.arrivals;
    if (_pending.size() >= _maxPending) {
        // Load shedding keeps replay memory bounded by the machine,
        // not the trace: overload is recorded, not accumulated.
        ++_stats.dropped;
        if (_registry != nullptr)
            _registry->counter("/trace/shed").add();
    } else {
        _backlogCores += _next.cores;
        _pending.push_back(std::move(_next));
        _stats.peakPending =
            std::max(_stats.peakPending, _pending.size());
    }
    _haveNext = false;
    fetch();
    drainPending(t, swap);
}

void
TraceReplayer::drainPending(Seconds t, const SwapFn &swap)
{
    // Strict FIFO with head-of-line blocking: a wide job at the head
    // waits for enough free cores even while narrower jobs queue
    // behind it. Deterministic and starvation-free by construction.
    while (!_pending.empty() &&
           static_cast<std::size_t>(_pending.front().cores) <=
               _freeCores.size()) {
        const TraceEvent ev = std::move(_pending.front());
        _pending.pop_front();
        _backlogCores -= ev.cores;
        const AppProfile &app = workloads::profile(ev.app);
        Job job;
        job.seq = _seq++;
        job.end = t + ev.duration;
        job.cores.reserve(static_cast<std::size_t>(ev.cores));
        for (int k = 0; k < ev.cores; ++k) {
            const int core = *_freeCores.begin();
            _freeCores.erase(_freeCores.begin());
            swap(core, app);
            job.cores.push_back(core);
        }
        _running.push(std::move(job));
        ++_stats.placed;
        if (_registry != nullptr) {
            _registry->counter("/trace/placed").add();
            _registry->gauge("/trace/pending_hwm")
                .setMax(static_cast<double>(_pending.size()));
        }
        _stats.peakRunning = std::max(
            _stats.peakRunning,
            static_cast<std::size_t>(_numCores) - _freeCores.size());
    }
}

} // namespace fastcap
