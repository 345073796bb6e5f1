#include "sim/memory_controller.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"

namespace fastcap {

MemoryController::MemoryController(int id, const SimConfig &cfg,
                                   EventQueue &queue, Rng rng)
    : _id(id), _cfg(cfg), _queue(queue), _rng(rng),
      _busFreq(cfg.memLadder.max()), _busBurstCycles(cfg.busBurstCycles)
{
    _banks.reserve(static_cast<std::size_t>(cfg.banksPerController));
    for (int b = 0; b < cfg.banksPerController; ++b)
        _banks.emplace_back(b);
}

void
MemoryController::busFrequency(Hertz f)
{
    if (!(f > 0.0))
        panic("MemoryController: non-positive or NaN bus frequency");
    _busFreq = f;
}

void
MemoryController::busBurstCycles(double cycles)
{
    if (!(cycles > 0.0))
        panic("MemoryController: non-positive or NaN bus burst "
              "cycles");
    _busBurstCycles = cycles;
}

Seconds
MemoryController::drawServiceTime()
{
    // Row-buffer hit vs miss mix; DRAM array timing does not scale
    // with the bus frequency (MemScale scales bus/interface only).
    const bool hit = _rng.chance(_cfg.rowHitRate);
    return hit ? _cfg.bankRowHitTime : _cfg.bankRowMissTime;
}

void
MemoryController::onEvent(std::uint32_t tag, double)
{
    if (tag == kTransferDone)
        onTransferDone();
    else
        onBankServiceDone(static_cast<int>(tag));
}

void
MemoryController::submit(Request req)
{
    const int bank_id = static_cast<int>(
        _rng.below(static_cast<std::uint64_t>(_banks.size())));
    req.bankId = bank_id;
    req.arriveTime = _queue.now();

    ++_inFlight;
    if (req.type == RequestType::Read)
        ++_counters.reads;
    else
        ++_counters.writebacks;

    MemoryBank &bank = _banks[static_cast<std::size_t>(bank_id)];
    const std::size_t depth = bank.enqueue(req);

    // Q: bank queue length sampled at arrival, including the new
    // request (Section III-A of the paper).
    _counters.qSum += static_cast<double>(depth);
    ++_counters.qSamples;

    tryStartBank(bank_id);
}

std::optional<Seconds>
MemoryController::resolveThink(Seconds t, bool writeback, Seconds arrive,
                               Seconds horizon)
{
    if (_inFlight != 0)
        return std::nullopt;
    const Rng saved = _rng;
    const auto banks = static_cast<std::uint64_t>(_banks.size());
    // The writeback enters the empty controller at `t`, so its bank and
    // service are drawn first; it leaves its bank at `ready1` and the
    // bus at `done1`. Without one, both are -infinity.
    int wb_bank = -1;
    Seconds svc1 = 0.0;
    Seconds ready1 = -std::numeric_limits<Seconds>::infinity();
    Seconds done1 = ready1;
    if (writeback) {
        wb_bank = static_cast<int>(_rng.below(banks));
        svc1 = drawServiceTime();
        ready1 = t + svc1;
        done1 = ready1 + transferTime();
    }
    const int bank_id = static_cast<int>(_rng.below(banks));
    const Seconds svc = drawServiceTime();
    // On the writeback's bank the read waits out its transfer blocking.
    // The bus serves in bank-done order, the writeback first on a tie
    // (its bank-done was scheduled first).
    const bool same_bank = bank_id == wb_bank;
    const Seconds start = same_bank ? std::max(arrive, done1) : arrive;
    const Seconds ready = start + svc;
    const Seconds xfer = std::max(ready, done1);
    const Seconds done = xfer + transferTime();
    // A read leaving its bank before the writeback would be delivered
    // with the writeback still in flight: that takes events.
    if (!(ready1 <= ready && done <= horizon)) {
        _rng = saved;
        return std::nullopt;
    }

    // Every writeback update precedes the read's on the same
    // accumulator: submit() and tryStartBank() at `t`, bank-done at
    // `ready1` with an empty bus queue, transfer-done at `done1`.
    if (writeback) {
        ++_counters.writebacks;
        _counters.qSum += 1.0;
        ++_counters.qSamples;
        _counters.serviceSum += svc1;
        ++_counters.serviceCount;
        _banks[static_cast<std::size_t>(wb_bank)].addBusy(ready1 - t);
        _counters.uSum += 1.0;
        ++_counters.uSamples;
        _bus.addBusy(done1 - ready1);
    }
    // submit() at `arrive`: the read queues behind a writeback still
    // in service on its bank. Bank-done at `ready`: a writeback ahead
    // is in transfer, not waiting, so U is 1. Transfer-done at `done`.
    ++_counters.reads;
    _counters.qSum += same_bank && arrive < ready1 ? 2.0 : 1.0;
    ++_counters.qSamples;
    _counters.serviceSum += svc;
    ++_counters.serviceCount;
    _banks[static_cast<std::size_t>(bank_id)].addBusy(ready - start);
    _counters.uSum += 1.0;
    ++_counters.uSamples;
    _bus.addBusy(done - xfer);
    _counters.responseSum += done - arrive;
    ++_counters.responseCount;
    return done;
}

void
MemoryController::tryStartBank(int bank_id)
{
    MemoryBank &bank = _banks[static_cast<std::size_t>(bank_id)];
    if (!bank.canStart())
        return;

    bank.startService(_queue.now());
    const Seconds svc = drawServiceTime();
    _counters.serviceSum += svc;
    ++_counters.serviceCount;

    _queue.scheduleAfter(svc, *this,
                         static_cast<std::uint32_t>(bank_id));
}

void
MemoryController::onBankServiceDone(int bank_id)
{
    MemoryBank &bank = _banks[static_cast<std::size_t>(bank_id)];
    // U: requests waiting for the bus, including the departing one.
    const std::size_t waiting =
        _bus.enqueue(bank.finishService(_queue.now()));
    _counters.uSum += static_cast<double>(waiting);
    ++_counters.uSamples;

    tryStartBus();
}

void
MemoryController::tryStartBus()
{
    if (!_bus.canStart())
        return;
    _bus.startTransfer(_queue.now());
    _queue.scheduleAfter(transferTime(), *this, kTransferDone);
}

void
MemoryController::onTransferDone()
{
    const Seconds now = _queue.now();
    const Request req = _bus.finishTransfer(now);

    // Transfer blocking released: the source bank may serve again.
    MemoryBank &bank = _banks[static_cast<std::size_t>(req.bankId)];
    bank.unblock();
    tryStartBank(req.bankId);

    --_inFlight;
    if (req.type == RequestType::Read) {
        _counters.responseSum += now - req.arriveTime;
        ++_counters.responseCount;
        if (_deliver)
            _deliver->onDataReturn(req, now);
    }

    tryStartBus();
}

const ControllerCounters &
MemoryController::finalizeWindow()
{
    _counters.bankBusyTime = 0.0;
    for (const MemoryBank &b : _banks)
        _counters.bankBusyTime += b.busyTime();
    _counters.busBusyTime = _bus.busyTime();
    return _counters;
}

void
MemoryController::resetCounters()
{
    // Preserve queue state; only measurement accumulators reset.
    for (MemoryBank &b : _banks)
        b.resetBusyTime();
    _bus.resetBusyTime();
    _counters = ControllerCounters{};
}

} // namespace fastcap
