/**
 * @file
 * The shared memory data bus: first-come-first-serve, one transfer at
 * a time. Transfer duration is set by the controller from the current
 * memory (bus) frequency — this is the DVFS-scaled `s_b` of the
 * paper's model.
 */

#ifndef FASTCAP_SIM_MEMORY_BUS_HPP
#define FASTCAP_SIM_MEMORY_BUS_HPP

#include "sim/request.hpp"
#include "util/units.hpp"

namespace fastcap {

/**
 * FCFS shared bus. Owned and driven by MemoryController. The request
 * in transfer stays at the head of the queue until finishTransfer().
 */
class MemoryBus
{
  public:
    /**
     * A request finished bank service and waits for the bus.
     * @return queue length after insertion, including the departing
     *         request itself — the paper's U sample.
     */
    std::size_t
    enqueue(const Request &req)
    {
        _queue.push(req);
        return queued();
    }

    bool idle() const { return !_transferring; }
    bool canStart() const { return idle() && !_queue.empty(); }
    /** Requests waiting for the bus (the one in transfer excluded). */
    std::size_t
    queued() const
    {
        return _queue.size() - (_transferring ? 1u : 0u);
    }

    /** Begin the next transfer; caller schedules its completion. */
    void
    startTransfer(Seconds now)
    {
        _transferStart = now;
        _transferring = true;
    }

    /** Complete the in-flight transfer and return the request. */
    Request
    finishTransfer(Seconds now)
    {
        _transferring = false;
        _busyTime += now - _transferStart;
        return _queue.pop();
    }

    /** Cumulative time the bus spent transferring. */
    Seconds busyTime() const { return _busyTime; }
    void resetBusyTime() { _busyTime = 0.0; }

    /** Account a transfer of `dt` resolved without passing through
     *  the queue (the controller's inline think). */
    void addBusy(Seconds dt) { _busyTime += dt; }

  private:
    RequestFifo _queue; //!< in-transfer head (if any) + waiting
    bool _transferring = false;
    Seconds _transferStart = 0.0;
    Seconds _busyTime = 0.0;
};

} // namespace fastcap

#endif // FASTCAP_SIM_MEMORY_BUS_HPP
