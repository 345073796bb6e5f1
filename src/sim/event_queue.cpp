#include "sim/event_queue.hpp"

#include <cstring>
#include <limits>

#include "util/logging.hpp"
#include "util/math.hpp"

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

/** The time whose bits doubleBits() gave. */
Seconds
timeOf(std::uint64_t bits)
{
    Seconds t = 0.0;
    std::memcpy(&t, &bits, sizeof(t));
    return t;
}

/**
 * The exclusive bound on a queued time's bits for the events at or
 * before `limit`. Queued times are at or above +0, so a negative or
 * NaN limit admits none; +inf admits every one.
 */
std::uint64_t
timeBound(Seconds limit)
{
    return limit >= 0.0 ? doubleBits(limit + 0.0) + 1 : 0;
}

} // namespace

EventQueue::Entry
EventQueue::entry(Seconds when, EventHandler &target, std::uint32_t tag,
                  double arg)
{
    // Adding +0.0 stores a -0.0 accepted at now() == 0 as +0.0, whose
    // bits order below every later time.
    return Entry{doubleBits(when + 0.0), _seq++, &target, arg, tag};
}

void
EventQueue::schedule(Seconds when, EventHandler &target,
                     std::uint32_t tag, double arg)
{
    checkNotPast("schedule", when, _now);
    const Entry e = entry(when, target, tag, arg);
    if (_hole) {
        _hole = false;
        siftDown(0, e);
        return;
    }
    // Sift up from a new last slot.
    _heap.push_back(e);
    const Key k = e.key();
    std::size_t i = _heap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (_heap[parent].key() < k)
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
    const Entry e = entry(when, target, tag, arg);
    if (!_stream)
        _stream = std::make_unique<Stream>();
    else if (!_stream->empty() && e.when < _stream->back().when)
        panic("EventQueue::scheduleInOrder: event time %g is before "
              "the stream's last %g",
              when, timeOf(_stream->back().when));
    _stream->push(e);
}

void
EventQueue::siftDown(std::size_t i, const Entry &e)
{
    const std::size_t n = _heap.size();
    const Key k = e.key();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        // The earlier of two children, picked without a branch.
        if (child + 1 < n)
            child += _heap[child + 1].key() < _heap[child].key();
        if (k < _heap[child].key())
            break;
        _heap[i] = _heap[child];
        i = child;
    }
    _heap[i] = e;
}

bool
EventQueue::dispatchNext(std::uint64_t bound)
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
        (_heap.empty() || _stream->front().key() < _heap.front().key())) {
        if (_stream->front().when >= bound)
            return false;
        e = _stream->pop();
    } else {
        if (_heap.empty() || _heap.front().when >= bound)
            return false;
        // Copy the root out and leave its slot as a hole for the
        // handler's first schedule().
        e = _heap.front();
        _hole = true;
    }
    _now = timeOf(e.when);
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
    const std::uint64_t bound = timeBound(t_end);
    _horizon = t_end;
    while (dispatchNext(bound)) {
    }
    _horizon = -std::numeric_limits<Seconds>::infinity();
    if (t_end > _now)
        _now = t_end;
    return _processed - before;
}

bool
EventQueue::step()
{
    return dispatchNext(
        timeBound(std::numeric_limits<Seconds>::infinity()));
}

} // namespace fastcap
