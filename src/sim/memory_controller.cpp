#include "sim/memory_controller.hpp"

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
