/**
 * @file
 * The simulated many-core server: N cores, K memory controllers
 * (banks + transfer-blocking bus each), DVFS actuators, and power
 * accounting. This is the substrate the paper's evaluation runs on
 * (their "detailed simulator"); see docs/DESIGN.md for the substitution
 * notes.
 *
 * The system exposes *windows*: bounded spans of discrete-event
 * simulation that return measured counters and energy. The harness
 * composes windows into the paper's epochs (profile -> decide ->
 * run).
 */

#ifndef FASTCAP_SIM_SYSTEM_HPP
#define FASTCAP_SIM_SYSTEM_HPP

#include <memory>
#include <vector>

#include "sim/app_profile.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/engine/backend.hpp"
#include "sim/event_queue.hpp"
#include "sim/memory_controller.hpp"
#include "sim/power.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace fastcap {

/**
 * The simulated many-core server, and the monolithic SimBackend. It
 * is the request and delivery sink of all its cores and controllers:
 * it routes each request to a controller by the core's access
 * probabilities, and each completed read back to its core.
 */
class ManyCoreSystem final : public SimBackend,
                             private RequestSink,
                             private DeliverySink
{
  public:
    /**
     * @param cfg  validated configuration
     * @param apps one application per core (size must equal numCores)
     */
    ManyCoreSystem(SimConfig cfg, std::vector<AppProfile> apps);

    /** Internal components hold references into this object. */
    ManyCoreSystem(const ManyCoreSystem &) = delete;
    ManyCoreSystem &operator=(const ManyCoreSystem &) = delete;
    ManyCoreSystem(ManyCoreSystem &&) = delete;
    ManyCoreSystem &operator=(ManyCoreSystem &&) = delete;

    /** The application bound to core i. */
    const AppProfile &appOf(int core) const override;

    /**
     * Rebind core i to a different application mid-run (job
     * arrival/departure in a dynamic-workload scenario). The core
     * picks the new profile up at its next think event; its
     * retired-instruction count is unaffected.
     */
    void swapApp(int core, AppProfile app) override;

    // --- DVFS actuation ----------------------------------------------
    void applyLevels(const std::vector<std::size_t> &core,
                     std::size_t mem) override;

    // --- simulation ----------------------------------------------------
    /**
     * Run the discrete-event simulation for `duration` seconds and
     * return measured counters, utilisations and energy.
     */
    WindowStats runWindow(Seconds duration) override;

    /** Extrapolation credit (see docs/DESIGN.md section 5). */
    void creditInstructions(const std::vector<double> &credit) override;

    // --- power ---------------------------------------------------------
    /**
     * Nameplate peak power: all cores busy at activity 1 and max
     * frequency, memory at its peak sustainable access rate. This is
     * the P̄ the budget fraction B multiplies.
     */
    Watts nameplatePeakPower() const override;

    /** Access probabilities of core i over controllers. */
    const std::vector<double> &
    accessProbabilities(int core) const override;

    /** Events processed so far (determinism / perf diagnostics). */
    std::uint64_t eventsProcessed() const override
    {
        return _queue.processed();
    }

    /** Total requests currently inside the memory subsystem. */
    std::uint64_t memoryInFlight() const;

  private:
    /** Route a core's request to a controller. */
    void submit(Request req) override;
    /** Hand a completed read back to its core. */
    void onDataReturn(const Request &req, Seconds now) override;
    void buildAccessMatrix();

    SimConfig _cfg;
    std::vector<AppProfile> _apps;
    EventQueue _queue;
    Rng _rng;
    std::vector<std::unique_ptr<Core>> _cores;
    std::vector<std::unique_ptr<MemoryController>> _controllers;
    CorePowerModel _corePower;
    std::vector<MemoryPowerModel> _memPower;
    std::vector<std::vector<double>> _accessProbs;
    bool _running = false;
};

} // namespace fastcap

#endif // FASTCAP_SIM_SYSTEM_HPP
