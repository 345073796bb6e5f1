#include "sim/event_queue.hpp"

#include <limits>

#include "util/logging.hpp"

namespace fastcap {

namespace {

// Negated so a NaN time, which would break the heap order, panics.
void
checkNotPast(const char *fn, Seconds when, Seconds now)
{
    if (!(when >= now))
        panic("EventQueue::%s: event time %g is NaN or in the past "
              "(now %g)",
              fn, when, now);
}

} // namespace

void
EventQueue::schedule(Seconds when, EventHandler &target,
                     std::uint32_t tag, double arg)
{
    checkNotPast("schedule", when, _now);
    const Entry e{when, _seq++, &target, arg, tag};
    if (_hole) {
        _hole = false;
        siftDown(0, e);
        return;
    }
    // Sift up from a new last slot.
    _heap.push_back(e);
    std::size_t i = _heap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!Later{}(_heap[parent], e))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i] = e;
}

void
EventQueue::scheduleInOrder(Seconds when, EventHandler &target,
                            std::uint32_t tag, double arg)
{
    checkNotPast("scheduleInOrder", when, _now);
    if (!_stream)
        _stream = std::make_unique<Stream>();
    else if (!_stream->empty() && when < _stream->back().when)
        panic("EventQueue::scheduleInOrder: event time %g is before "
              "the stream's last %g",
              when, _stream->back().when);
    _stream->push(Entry{when, _seq++, &target, arg, tag});
}

void
EventQueue::siftDown(std::size_t i, const Entry &e)
{
    const std::size_t n = _heap.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && Later{}(_heap[child], _heap[child + 1]))
            ++child;
        if (!Later{}(e, _heap[child]))
            break;
        _heap[i] = _heap[child];
        i = child;
    }
    _heap[i] = e;
}

bool
EventQueue::dispatchNext(Seconds limit)
{
    if (_hole) {
        // The last handler scheduled nothing: the last entry fills it.
        _hole = false;
        const Entry last = _heap.back();
        _heap.pop_back();
        if (!_heap.empty())
            siftDown(0, last);
    }
    Entry e;
    // The stream head goes first when it is earlier than the root.
    if (_stream && !_stream->empty() &&
        (_heap.empty() || Later{}(_heap.front(), _stream->front()))) {
        if (!(_stream->front().when <= limit))
            return false;
        e = _stream->pop();
    } else {
        if (_heap.empty() || !(_heap.front().when <= limit))
            return false;
        // Copy the root out and leave its slot as a hole for the
        // handler's first schedule().
        e = _heap.front();
        _hole = true;
    }
    _now = e.when;
    e.target->onEvent(e.tag, e.arg);
    ++_processed;
    return true;
}

void
EventQueue::badInlineAdvance(Seconds when) const
{
    panic("EventQueue::advanceInline: event time %g with %zu events "
          "pending (now %g, horizon %g)",
          when, pending(), _now, _horizon);
}

std::uint64_t
EventQueue::runUntil(Seconds t_end)
{
    // Handlers may count inline events too (advanceInline()).
    const std::uint64_t before = _processed;
    _horizon = t_end;
    while (dispatchNext(t_end)) {
    }
    _horizon = -std::numeric_limits<Seconds>::infinity();
    if (t_end > _now)
        _now = t_end;
    return _processed - before;
}

bool
EventQueue::step()
{
    return dispatchNext(std::numeric_limits<Seconds>::infinity());
}

} // namespace fastcap
