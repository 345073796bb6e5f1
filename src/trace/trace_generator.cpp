#include "trace/trace_generator.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <type_traits>
#include <utility>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"
#include "util/strings.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {

namespace {

constexpr double kTwoPi = 6.28318530717958647692;

/** %g, or %.17g where %g would not read back as `v`. */
std::string
num(double v)
{
    char buf[32];
    checkedSnprintf(buf, sizeof(buf), "%g", v);
    double back = 0.0;
    if (!parseDouble(buf, back) || back != v)
        checkedSnprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * All generator kinds in one lazy stream. Arrival processes differ;
 * app choice, duration and core demand are drawn the same way so a
 * kind only shapes *when* jobs land, not what they are.
 */
class GeneratedTrace : public TraceSource
{
  public:
    explicit GeneratedTrace(TraceGenSpec spec)
        : _spec(std::move(spec)), _rng(_spec.seed),
          _name("gen:" + _spec.toString())
    {
        if (_spec.kind == "mmpp")
            _stateEnd = _rng.exponential(_spec.meanQuiet);
    }

    bool
    next(TraceEvent &ev) override
    {
        if (_done ||
            (_spec.maxEvents != 0 && _emitted >= _spec.maxEvents)) {
            _done = true;
            return false;
        }

        Seconds arrival = 0.0;
        if (_spec.kind == "batch") {
            if (!nextBatchArrival(arrival)) {
                _done = true;
                return false;
            }
            ev.app = _batchApp;
        } else {
            if (!nextArrival(arrival)) {
                _done = true;
                return false;
            }
            ev.app = _spec.apps[_rng.below(_spec.apps.size())];
        }

        ev.arrival = arrival;
        // uniform() can return exactly 0; keep durations positive.
        ev.duration = std::max<Seconds>(
            _rng.exponential(_spec.meanDuration), 1e-12);
        ev.cores = _spec.maxCores == 1
                       ? 1
                       : 1 +
                static_cast<int>(_rng.below(
                    static_cast<std::uint64_t>(_spec.maxCores)));
        ++_emitted;
        return true;
    }

    const std::string &name() const override { return _name; }

  private:
    /** Next arrival of the kind's point process; false past horizon. */
    bool
    nextArrival(Seconds &out)
    {
        if (_spec.kind == "poisson")
            return homogeneous(_spec.rate, out);
        if (_spec.kind == "mmpp")
            return mmpp(out);
        if (_spec.kind == "sine" || _spec.kind == "flash")
            return thinned(out);
        panic("GeneratedTrace: unknown kind '%s'",
              _spec.kind.c_str());
    }

    bool
    homogeneous(double rate, Seconds &out)
    {
        _t += _rng.exponential(1.0 / rate);
        out = _t;
        return _t < _spec.horizon;
    }

    /**
     * 2-state MMPP: draw the next candidate in the current state; if
     * it lands past the state's dwell end, move to the boundary,
     * switch states and retry. Burstiness comes from the rate ratio.
     */
    bool
    mmpp(Seconds &out)
    {
        for (;;) {
            const double rate =
                _burst ? _spec.rate * _spec.burstFactor : _spec.rate;
            const Seconds cand = _t + _rng.exponential(1.0 / rate);
            if (cand >= _spec.horizon)
                return false;
            if (cand >= _stateEnd) {
                _t = _stateEnd;
                _burst = !_burst;
                _stateEnd = _t +
                    _rng.exponential(_burst ? _spec.meanBurst
                                            : _spec.meanQuiet);
                continue;
            }
            _t = cand;
            out = _t;
            return true;
        }
    }

    /** Intensity of the non-homogeneous kinds at time t. */
    double
    intensity(Seconds t) const
    {
        if (_spec.kind == "sine")
            return _spec.rate *
                (1.0 +
                 _spec.amplitude * std::sin(kTwoPi * t / _spec.period));
        // flash
        const bool in = t >= _spec.flashStart &&
            t < _spec.flashStart + _spec.flashDuration;
        return _spec.rate * (in ? _spec.flashFactor : 1.0);
    }

    /** Ogata thinning against the kind's peak intensity. */
    bool
    thinned(Seconds &out)
    {
        const double lmax = _spec.kind == "sine"
            ? _spec.rate * (1.0 + _spec.amplitude)
            : _spec.rate * std::max(_spec.flashFactor, 1.0);
        for (;;) {
            _t += _rng.exponential(1.0 / lmax);
            if (_t >= _spec.horizon)
                return false;
            if (_rng.uniform() * lmax < intensity(_t)) {
                out = _t;
                return true;
            }
        }
    }

    /**
     * Batches arrive as a homogeneous Poisson process; members share
     * the batch's instant and app (the correlation the `batch` kind
     * exists to produce) and draw core demands independently.
     */
    bool
    nextBatchArrival(Seconds &out)
    {
        if (_batchLeft == 0) {
            _batchTime += _rng.exponential(1.0 / _spec.rate);
            if (_batchTime >= _spec.horizon)
                return false;
            // Uniform size on [1, 2*mean-1] keeps the mean at
            // batchMean without a heavy tail.
            const auto span = static_cast<std::uint64_t>(
                std::max(1.0, 2.0 * std::round(_spec.batchMean) - 1.0));
            _batchLeft = 1 + static_cast<int>(_rng.below(span));
            _batchApp = _spec.apps[_rng.below(_spec.apps.size())];
        }
        --_batchLeft;
        out = _batchTime;
        return true;
    }

    TraceGenSpec _spec;
    Rng _rng;
    std::string _name;
    Seconds _t = 0.0;
    std::size_t _emitted = 0;
    bool _done = false;
    // mmpp
    bool _burst = false;
    Seconds _stateEnd = 0.0;
    // batch
    int _batchLeft = 0;
    Seconds _batchTime = 0.0;
    std::string _batchApp;
};

} // namespace

TraceGenSpec
TraceGenSpec::parse(const std::string &spec)
{
    TraceGenSpec g;
    std::vector<std::string> fields = splitFields(spec, ',', "TraceGenSpec");
    if (fields.empty())
        fatal("TraceGenSpec: empty generator spec");
    g.kind = fields.front();
    fields.erase(fields.begin());

    for (const KeyValue &kv : splitKeyValues(fields, "TraceGenSpec", spec)) {
        // Every value goes through the one strict parser; a bad one
        // fails naming the field and the whole spec.
        const auto set = [&](auto &field, const char *what) {
            using T = std::remove_reference_t<decltype(field)>;
            field = parseOrFatal<T>(kv.value, "TraceGenSpec", what, spec);
        };
        if (kv.key == "horizon")
            set(g.horizon, "horizon");
        else if (kv.key == "rate")
            set(g.rate, "rate");
        else if (kv.key == "apps")
            g.apps = splitFields(kv.value, '+', "TraceGenSpec", "app");
        else if (kv.key == "mean-duration")
            set(g.meanDuration, "mean duration");
        else if (kv.key == "max-cores")
            set(g.maxCores, "max cores");
        else if (kv.key == "seed")
            set(g.seed, "seed");
        else if (kv.key == "events")
            set(g.maxEvents, "event cap");
        else if (kv.key == "burst-factor")
            set(g.burstFactor, "burst factor");
        else if (kv.key == "mean-burst")
            set(g.meanBurst, "mean burst");
        else if (kv.key == "mean-quiet")
            set(g.meanQuiet, "mean quiet");
        else if (kv.key == "amplitude")
            set(g.amplitude, "amplitude");
        else if (kv.key == "period")
            set(g.period, "period");
        else if (kv.key == "flash-start")
            set(g.flashStart, "flash start");
        else if (kv.key == "flash-duration")
            set(g.flashDuration, "flash duration");
        else if (kv.key == "flash-factor")
            set(g.flashFactor, "flash factor");
        else if (kv.key == "batch-mean")
            set(g.batchMean, "batch mean");
        else
            fatal("TraceGenSpec: unknown key '%s' in '%s'",
                  kv.key.c_str(), spec.c_str());
    }
    if (g.apps.empty())
        g.apps = workloads::mixApps("MIX1");
    g.validate();
    return g;
}

std::string
TraceGenSpec::toString() const
{
    std::string s = kind;
    s += ",rate=" + num(rate);
    s += ",horizon=" + num(horizon);
    s += ",mean-duration=" + num(meanDuration);
    if (maxCores != 1)
        s += ",max-cores=" + std::to_string(maxCores);
    if (kind == "mmpp") {
        s += ",burst-factor=" + num(burstFactor);
        s += ",mean-burst=" + num(meanBurst);
        s += ",mean-quiet=" + num(meanQuiet);
    } else if (kind == "sine") {
        s += ",amplitude=" + num(amplitude);
        s += ",period=" + num(period);
    } else if (kind == "flash") {
        s += ",flash-start=" + num(flashStart);
        s += ",flash-duration=" + num(flashDuration);
        s += ",flash-factor=" + num(flashFactor);
    } else if (kind == "batch") {
        s += ",batch-mean=" + num(batchMean);
    }
    if (!apps.empty()) {
        s += ",apps=";
        for (std::size_t i = 0; i < apps.size(); ++i) {
            if (i != 0)
                s += '+';
            s += apps[i];
        }
    }
    if (maxEvents != 0)
        s += ",events=" + std::to_string(maxEvents);
    s += ",seed=" + std::to_string(seed);
    return s;
}

void
TraceGenSpec::validate() const
{
    if (kind != "poisson" && kind != "mmpp" && kind != "sine" &&
        kind != "flash" && kind != "batch")
        fatal("TraceGenSpec: unknown kind '%s' (expected poisson, "
              "mmpp, sine, flash or batch)", kind.c_str());
    if (!std::isfinite(horizon) || horizon <= 0.0)
        fatal("TraceGenSpec: horizon %g must be finite and positive",
              horizon);
    if (!std::isfinite(rate) || rate <= 0.0)
        fatal("TraceGenSpec: rate %g must be finite and positive",
              rate);
    if (!std::isfinite(meanDuration) || meanDuration <= 0.0)
        fatal("TraceGenSpec: mean duration %g must be finite and "
              "positive", meanDuration);
    if (maxCores < 1)
        fatal("TraceGenSpec: max cores %d must be >= 1", maxCores);
    if (apps.empty())
        fatal("TraceGenSpec: empty application list");
    for (const std::string &app : apps)
        if (workloads::findProfile(app) == nullptr)
            fatal("TraceGenSpec: unknown application '%s'",
                  app.c_str());
    if (kind == "mmpp") {
        if (!std::isfinite(burstFactor) || burstFactor < 1.0)
            fatal("TraceGenSpec: burst factor %g must be >= 1",
                  burstFactor);
        if (!std::isfinite(meanBurst) || meanBurst <= 0.0 ||
            !std::isfinite(meanQuiet) || meanQuiet <= 0.0)
            fatal("TraceGenSpec: mean burst/quiet dwell times must "
                  "be finite and positive");
    } else if (kind == "sine") {
        if (!std::isfinite(amplitude) || amplitude < 0.0 ||
            amplitude >= 1.0)
            fatal("TraceGenSpec: amplitude %g must be in [0, 1) "
                  "(intensity must stay positive)", amplitude);
        if (!std::isfinite(period) || period <= 0.0)
            fatal("TraceGenSpec: period %g must be finite and "
                  "positive", period);
    } else if (kind == "flash") {
        if (!std::isfinite(flashStart) || flashStart < 0.0)
            fatal("TraceGenSpec: flash start %g must be finite and "
                  "non-negative", flashStart);
        if (!std::isfinite(flashDuration) || flashDuration <= 0.0)
            fatal("TraceGenSpec: flash duration %g must be finite "
                  "and positive", flashDuration);
        if (!std::isfinite(flashFactor) || flashFactor < 1.0)
            fatal("TraceGenSpec: flash factor %g must be >= 1",
                  flashFactor);
    } else if (kind == "batch") {
        if (!std::isfinite(batchMean) || batchMean < 1.0)
            fatal("TraceGenSpec: batch mean %g must be >= 1",
                  batchMean);
    }
}

std::unique_ptr<TraceSource>
makeTraceGenerator(TraceGenSpec spec)
{
    if (spec.apps.empty())
        spec.apps = workloads::mixApps("MIX1");
    spec.validate();
    return std::make_unique<GeneratedTrace>(std::move(spec));
}

std::unique_ptr<TraceSource>
makeTraceSource(const std::string &spec)
{
    const std::string whole = trimmed(spec);
    if (whole.empty())
        fatal("makeTraceSource: empty trace spec");
    if (whole.rfind("gen:", 0) == 0)
        return makeTraceGenerator(
            TraceGenSpec::parse(whole.substr(4)));
    if (whole == "-")
        return std::make_unique<TraceReader>(std::cin, "<stdin>");
    return std::make_unique<TraceReader>(whole);
}

std::size_t
writeTrace(std::FILE *out, TraceSource &src,
           const std::string &provenance)
{
    std::fprintf(out, "# fastcap job trace v1\n");
    if (!provenance.empty())
        std::fprintf(out, "# %s\n", provenance.c_str());
    std::fprintf(out, "arrival_s,app,duration_s,cores\n");
    TraceEvent ev;
    std::size_t n = 0;
    while (src.next(ev)) {
        std::fprintf(out, "%.9f,%s,%.9f,%d\n", ev.arrival,
                     ev.app.c_str(), ev.duration, ev.cores);
        ++n;
    }
    return n;
}

} // namespace fastcap
