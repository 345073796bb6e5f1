#include "sim/core.hpp"

#include <algorithm>
#include <optional>

#include "sim/memory_controller.hpp"
#include "util/logging.hpp"

namespace fastcap {

Core::Core(int id, const SimConfig &cfg, EventQueue &queue, Rng rng)
    : _id(id), _cfg(cfg), _queue(queue), _rng(rng),
      _freq(cfg.coreLadder.max())
{
}

void
Core::runApp(const AppProfile *app)
{
    if (_started)
        panic("Core %d: cannot rebind application after start", _id);
    _app = app;
}

void
Core::frequency(Hertz f)
{
    if (!(f > 0.0))
        panic("Core %d: non-positive or NaN frequency", _id);
    _freq = f;
}

void
Core::start()
{
    if (!_app)
        fatal("Core %d: no application bound", _id);
    if (!_sink)
        fatal("Core %d: no request sink installed", _id);
    if (_started)
        panic("Core %d: started twice", _id);
    _started = true;
    scheduleThink(_queue.now(), _app->phaseAt(_instrRetired));
}

double
Core::currentActivity() const
{
    return _app ? _app->phaseAt(_instrRetired).activity : 0.0;
}

int
Core::maxOutstanding(const Phase &phase) const
{
    if (_cfg.execMode == ExecMode::InOrder)
        return 1;
    // Idealized OoO: the instruction window bounds how many misses
    // can be outstanding; dependencies are disregarded (Section IV-B).
    const double per_window = static_cast<double>(_cfg.oooWindow) /
        phase.instructionsPerMiss();
    const int mlp = static_cast<int>(per_window);
    return std::clamp(mlp, 1, _cfg.oooMaxOutstanding);
}

void
Core::onEvent(std::uint32_t tag, double arg)
{
    if (tag == kThinkDone) {
        onThinkDone();
        return;
    }
    // L2 hop done: the demand read reaches the memory subsystem.
    Request req;
    req.type = RequestType::Read;
    req.coreId = _id;
    req.issueTime = arg;
    _sink->submit(req);
}

Seconds
Core::drawThink(Seconds from, const Phase &phase)
{
    if (_thinkPending)
        panic("Core %d: second think scheduled while one is pending",
              _id);
    _thinkInstr = phase.instructionsPerMiss();
    // Think time: instructions * CPI_exec cycles at the current
    // frequency, jittered to avoid lockstep artefacts.
    _thinkTime = _thinkInstr * phase.cpiExec / _freq *
        _rng.jitter(_cfg.thinkJitterSigma);
    _thinkPending = true;
    return from + _thinkTime;
}

void
Core::scheduleThink(Seconds from, const Phase &phase)
{
    _queue.schedule(drawThink(from, phase), *this, kThinkDone);
}

void
Core::onThinkDone()
{
    // A think resolved inline leaves its lane with nothing in flight,
    // so if the next think ends within the horizon, its think-done is
    // the lane's next event: run it here rather than through the heap.
    for (;;) {
        _thinkPending = false;
        const Seconds now = _queue.now();
        _instrRetired += _thinkInstr;
        _counters.instructions += static_cast<std::uint64_t>(_thinkInstr);
        _counters.busyTime += _thinkTime;
        ++_counters.misses;

        const Phase &phase = _app->phaseAt(_instrRetired);
        const int writebacks = drawWritebacks(phase);
        const std::optional<Seconds> done =
            resolveInline(now, writebacks);
        if (!done) {
            submitThink(now, phase, writebacks);
            return;
        }
        const Seconds end = drawThink(*done, phase);
        if (!_queue.empty() || !(end <= _queue.horizon())) {
            _queue.schedule(end, *this, kThinkDone);
            return;
        }
        _queue.advanceInline(end);
    }
}

void
Core::submitThink(Seconds now, const Phase &phase, int writebacks)
{
    // Writebacks are background traffic, submitted ahead of the read.
    for (int i = 0; i < writebacks; ++i) {
        Request wb;
        wb.type = RequestType::Writeback;
        wb.coreId = _id;
        wb.issueTime = now;
        _sink->submit(wb);
    }

    // Demand read: traverses the shared L2 (constant-latency separate
    // voltage domain), then the memory subsystem. Every hop takes the
    // same machine-wide latency, so hops arrive in time order and go
    // on the queue's in-order stream.
    ++_outstanding;
    _queue.scheduleInOrder(now + _cfg.l2Time, *this, kL2Hop, now);

    if (_outstanding >= maxOutstanding(phase)) {
        // In-order cores always block here; OoO cores block only when
        // the instruction window is full.
        _stalled = true;
        _stallStart = now;
        ++_counters.stalls;
    } else {
        scheduleThink(now, phase);
    }
}

std::optional<Seconds>
Core::resolveInline(Seconds now, int writebacks)
{
    // An in-order core stalls on this read with nothing else
    // outstanding. If the controller is also empty, the lane queue
    // holds nothing but this think's requests and their whole paths
    // are fixed.
    if (!_inline || _cfg.execMode != ExecMode::InOrder || writebacks > 1)
        return std::nullopt;
    const std::optional<Seconds> done = _inline->resolveThink(
        now, writebacks == 1, now + _cfg.l2Time, _queue.horizon());
    if (done) {
        // The event path's stall at `now` and data return at `done`.
        ++_counters.stalls;
        ++_counters.returns;
        _counters.stallTime += *done - now;
    }
    return done;
}

int
Core::drawWritebacks(const Phase &phase)
{
    // Writebacks occur at wpki/mpki per demand miss; values above 1
    // (write-heavy phases) emit multiple writebacks stochastically.
    int drawn = 0;
    double expected = phase.wpki / phase.mpki;
    while (expected > 0.0) {
        const double p = std::min(expected, 1.0);
        if (p >= 1.0 || _rng.chance(p))
            ++drawn;
        expected -= 1.0;
    }
    _counters.writebacks += static_cast<std::uint64_t>(drawn);
    return drawn;
}

void
Core::onDataReturn(const Request &req, Seconds now)
{
    (void)req;
    --_outstanding;
    ++_counters.returns;
    if (_outstanding < 0)
        panic("Core %d: negative outstanding misses", _id);

    if (_stalled) {
        _stalled = false;
        _counters.stallTime += now - _stallStart;
        scheduleThink(now, _app->phaseAt(_instrRetired));
    }
}

void
Core::flushStall(Seconds now)
{
    if (_stalled && now > _stallStart) {
        _counters.stallTime += now - _stallStart;
        _stallStart = now;
    }
}

void
Core::creditInstructions(double instr)
{
    if (instr < 0.0)
        panic("Core %d: negative instruction credit", _id);
    _instrRetired += instr;
}

} // namespace fastcap
