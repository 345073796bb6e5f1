#include "sim/core.hpp"

#include <algorithm>
#include <limits>

#include "sim/memory_controller.hpp"
#include "util/logging.hpp"

namespace fastcap {

namespace {

/**
 * The writebacks a think in `phase` draws, wpki/mpki per miss: one for
 * each whole one expected (write-heavy phases expect more than one),
 * returned, then one by chance at the `remainder`, in [0, 1).
 */
int
wholeWritebacks(const Phase &phase, double &remainder)
{
    int whole = 0;
    for (remainder = phase.wpki / phase.mpki; remainder >= 1.0;
         remainder -= 1.0)
        ++whole;
    return whole;
}

} // namespace

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

void
Core::scheduleThink(Seconds from, const Phase &phase)
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
    _queue.schedule(from + _thinkTime, *this, kThinkDone);
}

void
Core::onThinkDone()
{
    _thinkPending = false;
    if (!_inline || _cfg.execMode != ExecMode::InOrder) {
        // The event path, kept out of the loop and its copies.
        _instrRetired += _thinkInstr;
        _counters.instructions += static_cast<std::uint64_t>(_thinkInstr);
        _counters.busyTime += _thinkTime;
        ++_counters.misses;
        const Phase &phase = _app->phaseAt(_instrRetired);
        double chance;
        const int writebacks = wholeWritebacks(phase, chance) +
            (chance > 0.0 && _rng.chance(chance) ? 1 : 0);
        _counters.writebacks += static_cast<std::uint64_t>(writebacks);
        submitThink(_queue.now(), phase, writebacks);
        return;
    }

    // The inline loop, one pass per think-done (see inlineController()).
    // It keeps both RNGs, the retired count and the think in locals,
    // written back at its two exits, and the window counters in place.
    // Per-phase constants change only once `retired` reaches `until`.
    MemoryController &ctrl = *_inline;
    ControllerCounters &mc = ctrl._counters;
    const auto banks = static_cast<std::uint64_t>(ctrl.numBanks());
    const Seconds xfer_time = ctrl.transferTime();
    const Seconds l2 = _cfg.l2Time;
    const double hit_rate = ctrl._cfg.rowHitRate;
    const Seconds hit_time = ctrl._cfg.bankRowHitTime;
    const Seconds miss_time = ctrl._cfg.bankRowMissTime;
    const Hertz freq = _freq;
    const Seconds horizon = _queue.horizon();
    Seconds now = _queue.now();
    Rng rng = _rng;
    Rng crng = ctrl._rng;
    double retired = _instrRetired;
    double think_instr = _thinkInstr;
    Seconds think_time = _thinkTime;
    auto write_back = [&] {
        _rng = rng;
        ctrl._rng = crng;
        _instrRetired = retired;
    };

    const Phase *phase = nullptr;
    double until = -std::numeric_limits<double>::infinity();
    double ipm = 0.0;
    double cycles = 0.0;
    int certain = 0;
    double chance = 0.0;
    int writebacks = 0;
    for (;;) {
        retired += think_instr;
        _counters.instructions += static_cast<std::uint64_t>(think_instr);
        _counters.busyTime += think_time;
        ++_counters.misses;
        if (!(retired < until)) {
            phase = &_app->phaseAt(retired, until);
            ipm = phase->instructionsPerMiss();
            cycles = ipm * phase->cpiExec;
            certain = wholeWritebacks(*phase, chance);
        }
        writebacks = certain + (chance > 0.0 && rng.chance(chance) ? 1 : 0);
        _counters.writebacks += static_cast<std::uint64_t>(writebacks);
        // The core stalls on this read with nothing else outstanding.
        if (writebacks > 1 || ctrl._inFlight != 0)
            break;

        // The controller is empty too, so the writeback, if any, and
        // the read meet nothing but each other. Draw banks and services
        // in submit() order; without a writeback, its bank-done and
        // transfer-done are at -infinity.
        Rng r = crng;
        const bool writeback = writebacks == 1;
        int wb_bank = -1;
        Seconds svc1 = 0.0;
        Seconds ready1 = -std::numeric_limits<Seconds>::infinity();
        Seconds done1 = ready1;
        if (writeback) {
            wb_bank = static_cast<int>(r.below(banks));
            svc1 = r.chance(hit_rate) ? hit_time : miss_time;
            ready1 = now + svc1;
            done1 = ready1 + xfer_time;
        }
        const Seconds arrive = now + l2;
        const int bank = static_cast<int>(r.below(banks));
        const Seconds svc = r.chance(hit_rate) ? hit_time : miss_time;
        // On the writeback's bank the read waits out its transfer
        // blocking. The bus serves in bank-done order, the writeback
        // first on a tie (its bank-done was scheduled first).
        const bool same_bank = bank == wb_bank;
        const Seconds start = same_bank ? std::max(arrive, done1) : arrive;
        const Seconds ready = start + svc;
        const Seconds xfer = std::max(ready, done1);
        const Seconds done = xfer + xfer_time;
        // A read leaving its bank before the writeback would be
        // delivered with the writeback in flight, and one past the
        // horizon (or NaN) may not be: both take events.
        if (!(ready1 <= ready && done <= horizon))
            break;
        crng = r;

        // Account both as their events would, in order and with their
        // float expressions: the writeback's submit() at `now`,
        // bank-done at `ready1` with an empty bus queue, transfer-done
        // at `done1`, each before the read's on the same accumulator.
        if (writeback) {
            ++mc.writebacks;
            mc.qSum += 1.0;
            ++mc.qSamples;
            mc.serviceSum += svc1;
            ++mc.serviceCount;
            ctrl._banks[static_cast<std::size_t>(wb_bank)].addBusy(
                ready1 - now);
            mc.uSum += 1.0;
            ++mc.uSamples;
            ctrl._bus.addBusy(done1 - ready1);
        }
        // submit() at `arrive`: the read queues behind a writeback
        // still in service on its bank. Bank-done at `ready`: a
        // writeback ahead is in transfer, not waiting, so U is 1.
        // Transfer-done at `done`.
        ++mc.reads;
        mc.qSum += same_bank && arrive < ready1 ? 2.0 : 1.0;
        ++mc.qSamples;
        mc.serviceSum += svc;
        ++mc.serviceCount;
        ctrl._banks[static_cast<std::size_t>(bank)].addBusy(ready - start);
        mc.uSum += 1.0;
        ++mc.uSamples;
        ctrl._bus.addBusy(done - xfer);
        mc.responseSum += done - arrive;
        ++mc.responseCount;
        // The core's stall at `now` and data return at `done`.
        ++_counters.stalls;
        ++_counters.returns;
        _counters.stallTime += done - now;

        // scheduleThink()'s draw, `cycles` being ipm * cpiExec.
        think_instr = ipm;
        think_time = cycles / freq * rng.jitter(_cfg.thinkJitterSigma);
        const Seconds end = done + think_time;
        if (!_queue.empty() || !(end <= horizon)) {
            write_back();
            _thinkInstr = think_instr;
            _thinkTime = think_time;
            _thinkPending = true;
            _queue.schedule(end, *this, kThinkDone);
            return;
        }
        _queue.advanceInline(end);
        now = end;
    }
    write_back();
    submitThink(now, *phase, writebacks);
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
