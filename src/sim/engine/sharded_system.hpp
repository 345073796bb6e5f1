/**
 * @file
 * Sharded simulation engine for routine 256/1024-core capping runs.
 *
 * The monolithic ManyCoreSystem advances every core through one
 * serial event queue, which caps experiment grids at ~64 cores. This
 * engine gives every core a private *lane* — the core, its memory
 * controller slice, its application slot and its own EventQueue — and
 * advances each lane alone to the window end; windows are the natural
 * barriers because cores only interact through the per-epoch policy
 * decision the harness applies between windows. A *shard* is only a
 * contiguous range of lanes that one thread-pool job advances, one
 * lane after another; it owns no simulation state.
 *
 * Modeling contract (the approximation that buys lane independence;
 * docs/ARCHITECTURE.md "Simulation engine"):
 *
 *   - Each core owns a private *memory lane*: a MemoryController
 *     carrying a share of its logical controller's bus (transfer
 *     time scaled so the merged occupancy never exceeds the window)
 *     and at least one bank. Cross-core memory contention is
 *     represented by that bandwidth share instead of simulated
 *     queueing, so lanes share no mutable state. The first window
 *     uses the fair 1/laneCount share; every window barrier then
 *     re-divides each logical bus across its lanes in proportion to
 *     the lanes' measured demand (reads + writebacks) of the window
 *     just merged, floored at a tenth of the fair share, so skewed
 *     workloads stop over-throttling hot lanes. Weights are computed
 *     from merged per-lane counters on the calling thread and always
 *     sum to 1 per controller — determinism and the occupancy bound
 *     both survive re-division.
 *   - Core i maps to *logical* controller (i mod numControllers).
 *     Window stats aggregate the lanes of a logical controller (in
 *     ascending core order) back into numControllers
 *     MemWindowStats, so the harness, the online fitter and the
 *     policies see the same shapes as on the monolithic engine.
 *     Skewed interleaving is not representable here (the engine warns
 *     and models the modulo mapping).
 *   - All randomness is per-lane, derived from (seed, core index)
 *     only, and every event is scheduled on and dispatched by its own
 *     lane's queue, so a lane's event order depends on nothing outside
 *     the lane.
 *
 * Determinism contract (enforced by tests/engine/): CSV/JSON output
 * of any experiment on this engine is byte-identical for every shard
 * count and every thread count. Each shard job fills only its own
 * lanes' per-core stats; the merge sums their energies in core-index
 * order on the calling thread, never on the pool.
 */

#ifndef FASTCAP_SIM_ENGINE_SHARDED_SYSTEM_HPP
#define FASTCAP_SIM_ENGINE_SHARDED_SYSTEM_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/core.hpp"
#include "sim/engine/backend.hpp"
#include "sim/event_queue.hpp"
#include "sim/memory_controller.hpp"
#include "sim/power.hpp"
#include "util/thread_pool.hpp"

namespace fastcap {

/**
 * The sharded many-core engine. See the file comment for the
 * modeling and determinism contracts.
 */
class ShardedSystem : public SimBackend
{
  public:
    /**
     * @param cfg     validated configuration (the modeled machine)
     * @param apps    one application per core
     * @param shards  shard count, clamped to [1, numCores]
     * @param threads shard workers; 0 = hardware concurrency, 1 =
     *                serial. Output is identical either way.
     * @param registry observe-only metrics sink (null = off); see
     *                EngineConfig::registry
     * @param metric_prefix path prefix of the engine's metrics
     */
    ShardedSystem(SimConfig cfg, std::vector<AppProfile> apps,
                  int shards, int threads,
                  telemetry::Registry *registry = nullptr,
                  const std::string &metric_prefix = "");
    ~ShardedSystem() override;

    ShardedSystem(const ShardedSystem &) = delete;
    ShardedSystem &operator=(const ShardedSystem &) = delete;

    const AppProfile &appOf(int core) const override;
    void swapApp(int core, AppProfile app) override;

    void applyLevels(const std::vector<std::size_t> &core,
                     std::size_t mem) override;

    WindowStats runWindow(Seconds duration) override;
    void creditInstructions(const std::vector<double> &credit) override;

    Watts nameplatePeakPower() const override;
    const std::vector<double> &
    accessProbabilities(int core) const override;
    std::uint64_t eventsProcessed() const override;

    // --- engine introspection (tests, benches) ----------------------
    int numShards() const { return _numShards; }
    /** Effective worker count shard jobs fan out over. */
    int shardWorkers() const;
    /** Core range [first, first + count) of shard s. */
    std::pair<int, int> shardRange(int s) const;

  private:
    /**
     * One core's private slice of the machine: its event queue, the
     * application slot the core's pointer refers to, its memory lane
     * and the core. The parts point at each other, so a lane is built
     * in place and never copied or moved.
     */
    struct Lane
    {
        Lane(int core_id, const SimConfig &lane_cfg, std::uint64_t seed,
             AppProfile profile);
        Lane(const Lane &) = delete;
        Lane &operator=(const Lane &) = delete;

        EventQueue queue;
        AppProfile app;
        MemoryController controller;
        Core core;
    };

    Lane &lane(int core);
    const Lane &lane(int core) const;
    /** Advance shard s's lanes, one by one, to t_end, finalize
     *  their window counters and fill their slots of stats.cores and
     *  _coreEnergy. */
    void runShardWindow(int s, Seconds t_end, WindowStats &stats);
    /**
     * Re-divide every logical bus across its lanes from the demand
     * (reads + writebacks) the merged window measured. Runs on the
     * calling thread at the window barrier; inputs are per-lane
     * counters only, so the new weights are identical for every
     * shard layout and thread count.
     */
    void redivideBandwidth();

    SimConfig _cfg;
    /**
     * Per-logical-controller lane configs handed to cores and
     * controllers (index: core % numControllers): busBurstCycles
     * scaled to that controller's per-lane bandwidth share,
     * banksPerController scaled to the per-lane bank share. Scaling
     * by the controller's own lane count — not the N/K average —
     * keeps every logical bus's aggregated occupancy <= the window
     * even when numCores is not divisible by numControllers. Lanes
     * keep references into this vector (sized once, never resized).
     */
    std::vector<SimConfig> _laneCfgs;
    /**
     * Lane-to-logical bus-occupancy scale per core: 1 / the lane's
     * current bandwidth weight. Starts at the controller's lane count
     * (the fair share) and is retuned by redivideBandwidth() at every
     * window barrier. The merge divides a lane's bus busy time by the
     * scale that was in effect during the window.
     */
    std::vector<double> _laneScale;
    /** Per-core energy of the last window, written by the lane pass
     *  and summed in core order by the merge. */
    std::vector<double> _coreEnergy;
    /** redivideBandwidth()'s per-controller weight scratch. */
    std::vector<double> _laneWeight;

    /**
     * The lanes, indexed by core id, in one flat array. The optional
     * only defers each lane's in-place construction; every slot holds
     * a lane after the constructor. Never resized.
     */
    std::vector<std::optional<Lane>> _lanes;
    int _numShards = 1;
    CorePowerModel _corePower;
    std::vector<MemoryPowerModel> _memPower; //!< per logical controller
    /** One-hot access row of each logical controller; core i reads
     *  row i % numControllers. */
    std::vector<std::vector<double>> _accessRows;
    /** Every lane controller's bus frequency (the merge reports it). */
    Hertz _busFreq = 0.0;
    Seconds _now = 0.0;
    int _threads = 1;
    /** Created only when more than one worker is requested. */
    std::unique_ptr<ThreadPool> _pool;
    /** Metric handles; null (empty) without a registry. */
    telemetry::Counter *_windowsMetric = nullptr;
    telemetry::Counter *_laneMergesMetric = nullptr;
    std::vector<telemetry::Gauge *> _shardEventsMetric;
};

} // namespace fastcap

#endif // FASTCAP_SIM_ENGINE_SHARDED_SYSTEM_HPP
