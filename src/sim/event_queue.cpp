#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"

namespace fastcap {

void
EventQueue::schedule(Seconds when, EventHandler &target,
                     std::uint32_t tag, double arg)
{
    // Negated so a NaN time, which would break the heap order, panics.
    if (!(when >= _now))
        panic("EventQueue::schedule: event time %g is NaN or in the "
              "past (now %g)",
              when, _now);
    _heap.push_back(Entry{when, _seq++, &target, arg, tag});
    std::push_heap(_heap.begin(), _heap.end(), Later{});
}

void
EventQueue::dispatchNext()
{
    // Copy the entry out before dispatching so the handler may
    // schedule (and grow the heap) freely.
    std::pop_heap(_heap.begin(), _heap.end(), Later{});
    const Entry e = _heap.back();
    _heap.pop_back();
    _now = e.when;
    e.target->onEvent(e.tag, e.arg);
    ++_processed;
}

void
EventQueue::badInlineAdvance(Seconds when) const
{
    panic("EventQueue::advanceInline: event time %g with %zu events "
          "pending (now %g, horizon %g)",
          when, _heap.size(), _now, _horizon);
}

std::uint64_t
EventQueue::runUntil(Seconds t_end)
{
    // Handlers may count inline events too (advanceInline()).
    const std::uint64_t before = _processed;
    _horizon = t_end;
    while (!_heap.empty() && _heap.front().when <= t_end)
        dispatchNext();
    _horizon = -std::numeric_limits<Seconds>::infinity();
    if (t_end > _now)
        _now = t_end;
    return _processed - before;
}

bool
EventQueue::step()
{
    if (_heap.empty())
        return false;
    dispatchNext();
    return true;
}

} // namespace fastcap
