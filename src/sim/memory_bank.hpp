/**
 * @file
 * One DRAM bank with a FIFO request queue and transfer blocking.
 *
 * Per the paper's queuing model (Figure 1): a bank serves the request
 * at its head, and once service finishes it may not start the next
 * request until the served request has acquired the shared bus and
 * completed its transfer ("transfer blocking").
 */

#ifndef FASTCAP_SIM_MEMORY_BANK_HPP
#define FASTCAP_SIM_MEMORY_BANK_HPP

#include "sim/request.hpp"
#include "util/units.hpp"

namespace fastcap {

/**
 * A single memory bank. Owned and driven by MemoryController; the
 * bank itself only tracks queue/service/blocking state and busy time.
 * The request in service stays at the head of the queue until
 * finishService() hands it to the bus.
 */
class MemoryBank
{
  public:
    explicit MemoryBank(int id) : _id(id) {}

    int id() const { return _id; }

    /**
     * Add a request to the tail of the bank queue.
     * @return queue depth after insertion, counting an in-service
     *         request — the paper's Q sample at arrival.
     */
    std::size_t
    enqueue(const Request &req)
    {
        _queue.push(req);
        return depth();
    }

    /** True if a new service can begin right now. */
    bool
    canStart() const
    {
        return !_serving && !_blocked && !_queue.empty();
    }

    /**
     * Mark the head request in service.
     * Caller schedules the completion event.
     */
    void
    startService(Seconds now)
    {
        _serviceStart = now;
        _serving = true;
    }

    /**
     * Service done: the request leaves for the bus queue and the bank
     * becomes blocked until that transfer completes.
     */
    Request
    finishService(Seconds now)
    {
        Request req = _queue.pop();
        _serving = false;
        _blocked = true;
        _busyTime += now - _serviceStart;
        return req;
    }

    /** The bank's outstanding transfer completed; it may serve again. */
    void unblock() { _blocked = false; }

    bool blocked() const { return _blocked; }

    /** Waiting requests plus any in-service request. */
    std::size_t depth() const { return _queue.size(); }

    /** Cumulative time spent actively serving requests. */
    Seconds busyTime() const { return _busyTime; }

    /** Account a service of `dt` resolved without passing through
     *  the queue (the controller's inline think). */
    void addBusy(Seconds dt) { _busyTime += dt; }

    /** Reset the busy-time accumulator (window boundaries). */
    void resetBusyTime() { _busyTime = 0.0; }

  private:
    int _id = 0;
    RequestFifo _queue; //!< in-service head (if serving) + waiting
    bool _serving = false;
    bool _blocked = false;
    Seconds _serviceStart = 0.0;
    Seconds _busyTime = 0.0;
};

} // namespace fastcap

#endif // FASTCAP_SIM_MEMORY_BANK_HPP
