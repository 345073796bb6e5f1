#include "sim/config.hpp"

#include <cmath>
#include <limits>

#include "util/logging.hpp"

namespace fastcap {

SimConfig
SimConfig::defaultConfig(int cores)
{
    SimConfig cfg;
    cfg.numCores = cores;

    // Table II: 4 DDR3 channels for 16/32 cores, 8 channels for 64.
    // Beyond the paper's largest configuration the channel count
    // scales with the core count (8 per 64 cores), keeping per-core
    // bandwidth at the 64-core level — the machine a 256/1024-core
    // capping run models grows its memory system with its cores.
    const int channels = (cores > 64) ? 8 * ((cores + 63) / 64)
        : (cores >= 64)               ? 8
                                      : 4;
    cfg.banksPerController = 8 * channels;

    // The default single "common bus" aggregates all channels, so its
    // per-line transfer time shrinks with channel count: 6 DDR bus
    // cycles of occupancy for one 64-byte line on one channel.
    cfg.busBurstCycles = 6.0 / static_cast<double>(channels);

    // Memory power scales with channel count (reference: 4 channels).
    const double mem_scale = static_cast<double>(channels) / 4.0;
    cfg.memPower.interfaceMax *= mem_scale;
    cfg.memPower.mcMax *= mem_scale;
    cfg.memPower.staticPower *= mem_scale;

    cfg.validate();
    return cfg;
}

namespace {

/** Finite and > 0; false for NaN, which fails every comparison. */
bool
positiveFinite(double x)
{
    return std::isfinite(x) && x > 0.0;
}

/** lo <= x <= hi; false for NaN. */
bool
within(double x, double lo, double hi)
{
    return x >= lo && x <= hi;
}

constexpr double kMaxFinite = std::numeric_limits<double>::max();

} // namespace

void
SimConfig::validate() const
{
    // Each double check is written so that NaN fails: library
    // callers reach here without passing through a CLI parser.
    if (numCores < 1)
        fatal("SimConfig: numCores must be >= 1 (got %d)", numCores);
    if (numControllers < 1)
        fatal("SimConfig: numControllers must be >= 1 (got %d)",
              numControllers);
    if (banksPerController < 1)
        fatal("SimConfig: banksPerController must be >= 1 (got %d)",
              banksPerController);
    if (!positiveFinite(busBurstCycles))
        fatal("SimConfig: busBurstCycles must be positive");
    if (!positiveFinite(epochLength) || !positiveFinite(profileWindow) ||
        !positiveFinite(execWindow))
        fatal("SimConfig: epoch/window lengths must be positive and "
              "finite");
    if (profileWindow + execWindow > epochLength)
        fatal("SimConfig: sampling windows (%g s) exceed the epoch "
              "(%g s)", profileWindow + execWindow, epochLength);
    if (!(skewHotFraction > 0.0 && skewHotFraction <= 1.0))
        fatal("SimConfig: skewHotFraction must be in (0, 1]");
    if (!within(rowHitRate, 0.0, 1.0))
        fatal("SimConfig: rowHitRate must be in [0, 1]");
    if (!positiveFinite(bankRowHitTime) ||
        !within(bankRowMissTime, bankRowHitTime, kMaxFinite))
        fatal("SimConfig: need 0 < bankRowHitTime <= bankRowMissTime");
    if (oooMaxOutstanding < 1)
        fatal("SimConfig: oooMaxOutstanding must be >= 1");
    if (!positiveFinite(corePower.dynMax) ||
        !within(corePower.staticPower, 0.0, kMaxFinite))
        fatal("SimConfig: core power parameters must be positive");
    if (!within(corePower.stallFactor, 0.0, 1.0))
        fatal("SimConfig: stallFactor must be in [0, 1]");
}

} // namespace fastcap
