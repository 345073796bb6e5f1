/**
 * @file
 * Memory controller: orchestrates banks and the shared bus, applies
 * memory DVFS, and measures the MemScale-style counters FastCap
 * consumes (Q, U, s_m, response times, utilisations).
 */

#ifndef FASTCAP_SIM_MEMORY_CONTROLLER_HPP
#define FASTCAP_SIM_MEMORY_CONTROLLER_HPP

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/memory_bank.hpp"
#include "sim/memory_bus.hpp"
#include "sim/request.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace fastcap {

/**
 * Counters accumulated by a controller during one measurement window.
 * These are the performance counters of [3] (MemScale) that FastCap
 * reads each epoch.
 */
struct ControllerCounters
{
    std::uint64_t reads = 0;       //!< demand misses completed arrival
    std::uint64_t writebacks = 0;  //!< writebacks accepted
    double qSum = 0.0;             //!< sum of bank-queue-depth samples
    std::uint64_t qSamples = 0;
    double uSum = 0.0;             //!< sum of bus-queue-depth samples
    std::uint64_t uSamples = 0;
    Seconds serviceSum = 0.0;      //!< total bank service time drawn
    std::uint64_t serviceCount = 0;
    Seconds responseSum = 0.0;     //!< bank-arrival to data-delivery
    std::uint64_t responseCount = 0;
    Seconds bankBusyTime = 0.0;    //!< summed across banks
    Seconds busBusyTime = 0.0;

    /** Mean bank queue depth seen at request arrival (paper's Q). */
    double
    meanQ() const
    {
        return qSamples ? qSum / static_cast<double>(qSamples) : 1.0;
    }

    /** Mean bus queue length at bank departure (paper's U). */
    double
    meanU() const
    {
        return uSamples ? uSum / static_cast<double>(uSamples) : 1.0;
    }

    /** Mean bank service time (paper's s_m). */
    Seconds
    meanServiceTime(Seconds fallback) const
    {
        return serviceCount
            ? serviceSum / static_cast<double>(serviceCount)
            : fallback;
    }
};

/**
 * One memory controller with `banksPerController` banks and one
 * shared data bus exhibiting transfer blocking. It is the target of
 * its own bank-done (tag = bank id) and transfer-done events.
 */
class MemoryController final : public EventHandler, public RequestSink
{
  public:
    MemoryController(int id, const SimConfig &cfg, EventQueue &queue,
                     Rng rng);

    int id() const { return _id; }
    int numBanks() const { return static_cast<int>(_banks.size()); }

    /** Install the read-completion sink (not owned; routes to
     *  cores). Without one, completed reads are dropped. */
    void deliverySink(DeliverySink *sink) { _deliver = sink; }

    /** Set the bus frequency (memory DVFS); takes effect for new
     *  transfers. */
    void busFrequency(Hertz f);
    Hertz busFrequency() const { return _busFreq; }

    /**
     * Bus cycles one cache-line transfer occupies. Initialized from
     * the config; the sharded engine's per-epoch bandwidth
     * re-division retunes it at window barriers (a larger value
     * models a smaller share of the logical bus). Takes effect for
     * new transfers.
     */
    void busBurstCycles(double cycles);
    double busBurstCycles() const { return _busBurstCycles; }

    /** Transfer time of one cache line at the current frequency. */
    Seconds transferTime() const { return _busBurstCycles / _busFreq; }

    /**
     * Accept a request from a core. The bank is chosen by uniform
     * address interleaving across this controller's banks.
     */
    void submit(Request req) override;

    /** Counters accumulated since the last resetCounters(). */
    const ControllerCounters &counters() const { return _counters; }

    /**
     * Fold the banks' and bus' busy-time accumulators into the
     * counters and return them; call at a window boundary before
     * reading power-relevant utilisations.
     */
    const ControllerCounters &finalizeWindow();

    /** Zero the window counters (busy times included). */
    void resetCounters();

    /** Requests currently inside the controller (queues + service +
     *  bus). Used by conservation tests. */
    std::uint64_t inFlight() const { return _inFlight; }

  private:
    /** An in-order lane's core resolves its thinks against this state
     *  in its own loop (Core::inlineController()). */
    friend class Core;

    /** Event tag of transfer-done; bank-done events carry the bank
     *  id. */
    static constexpr std::uint32_t kTransferDone = 0xffffffffu;

    void onEvent(std::uint32_t tag, double arg) override;
    void tryStartBank(int bank_id);
    void onBankServiceDone(int bank_id);
    void tryStartBus();
    void onTransferDone();
    Seconds drawServiceTime();

    int _id = 0;
    const SimConfig &_cfg;
    EventQueue &_queue;
    Rng _rng;
    Hertz _busFreq = 0.0;
    double _busBurstCycles = 0.0;
    std::vector<MemoryBank> _banks;
    MemoryBus _bus;
    DeliverySink *_deliver = nullptr;
    ControllerCounters _counters;
    std::uint64_t _inFlight = 0;
};

} // namespace fastcap

#endif // FASTCAP_SIM_MEMORY_CONTROLLER_HPP
