/**
 * @file
 * Discrete-event simulation core.
 *
 * A time-ordered queue of typed events with deterministic FIFO
 * tie-breaking for equal timestamps. A queue is single-threaded: the
 * monolithic ManyCoreSystem runs every core through one queue, and
 * the sharded engine gives each core's lane a queue of its own
 * (sim/engine/sharded_system.hpp), so only whole lanes run in
 * parallel. A lane whose queue is empty may also run its next event
 * inline, without the heap (advanceInline()). Determinism (same seed,
 * same event order, same results) is a hard requirement for
 * reproducing EXPERIMENTS.md.
 *
 * Pending events live in two places, both ordered by the one
 * (when, seq) key: a binary min-heap, and an in-order stream for
 * events whose times never decrease (a core's L2 hops, all one
 * machine-wide latency after their issue). Dispatch takes the
 * earlier of the heap root and the stream head. A dispatched heap
 * root is not popped up front: it stays as a hole while its handler
 * runs, the handler's first schedule() sifts its entry down from the
 * root, and only after a handler that schedules nothing does the
 * next dispatch refill the hole from the heap's last entry. Most
 * events thus cost one sift instead of a pop and a push. The key is
 * a strict total order, so every such layout dispatches the same
 * sequence.
 *
 * The key is compared as one unsigned integer pair: the IEEE-754
 * bits of `when`, then `seq`. For doubles at or above +0 the bit
 * pattern orders exactly like the value (+inf above every finite
 * time, subnormals below the normals), so this is the same order as
 * comparing the doubles, with no floating-point compare and a sift
 * that picks the earlier child without a branch. It rests on one
 * invariant: every queued `when` is at or above +0. NaN and past
 * times panic, and the one negative time a queue accepts, -0.0 at
 * now() == 0, is stored as +0.0. A 4-ary heap on the same key was
 * measured slower (~0.92x on the fig. 9 grid) than this binary one.
 */

#ifndef FASTCAP_SIM_EVENT_QUEUE_HPP
#define FASTCAP_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "util/ring_fifo.hpp"
#include "util/units.hpp"

namespace fastcap {

/**
 * Receiver of typed events. An event is plain data — a target, a
 * `tag` the target interprets (which of its event kinds fired) and
 * one `arg` payload — so scheduling never allocates and dispatch is
 * a single virtual call.
 */
class EventHandler
{
  public:
    virtual void onEvent(std::uint32_t tag, double arg) = 0;

  protected:
    ~EventHandler() = default;
};

/**
 * Time-ordered event queue.
 *
 * Events are (target, tag, arg) records scheduled at absolute
 * simulated times. Events scheduled for the same instant fire in
 * scheduling order, whether they went to the heap (schedule()) or to
 * the in-order stream (scheduleInOrder()): both draw their sequence
 * numbers from one counter.
 */
class EventQueue
{
  public:
    /** Current simulated time in seconds. */
    Seconds now() const { return _now; }

    /** Total events executed since construction. */
    std::uint64_t processed() const { return _processed; }

    /**
     * The bound the runUntil() in progress runs to: an event at or
     * before it is certain to be dispatched by that call. Outside
     * runUntil() it is -infinity, so nothing counts as certain.
     */
    Seconds horizon() const { return _horizon; }

    /**
     * Number of pending events. Inside a handler the event being
     * dispatched no longer counts, even while its heap slot is a hole.
     */
    std::size_t
    pending() const
    {
        return _heap.size() - (_hole ? 1 : 0) +
            (_stream ? _stream->size() : 0);
    }
    bool empty() const { return pending() == 0; }

    /**
     * Schedule `target.onEvent(tag, arg)` at absolute time `when`.
     * The target must outlive the event.
     *
     * Scheduling in the past or at a NaN time is a library bug and
     * panics; scheduling exactly at now() is allowed and fires on the
     * next run step.
     */
    void schedule(Seconds when, EventHandler &target,
                  std::uint32_t tag = 0, double arg = 0.0);

    /**
     * Schedule like schedule(), on the in-order stream: a FIFO beside
     * the heap that costs no sift. `when` must not be earlier than
     * the last event still on the stream; an append out of order is a
     * library bug and panics, as does a past or NaN `when`. The
     * stream's storage is allocated on its first use, so a queue that
     * never uses it pays one pointer.
     */
    void scheduleInOrder(Seconds when, EventHandler &target,
                         std::uint32_t tag = 0, double arg = 0.0);

    /**
     * Run the caller's next event inline instead of through the heap:
     * advance now() to `when` and count one processed event. Only the
     * handler of an event runUntil() is dispatching may call it, and
     * only when that next event is certain to be the queue's: nothing
     * is pending and `when` is at or before horizon(), exactly the
     * events runUntil() would dispatch. Anything else is a library bug
     * and panics, as does a NaN or past `when`.
     */
    void
    advanceInline(Seconds when)
    {
        // Negated so a NaN time panics.
        if (!empty() || !(when >= _now) || !(when <= _horizon))
            badInlineAdvance(when);
        _now = when;
        ++_processed;
    }

    /** Schedule at now() + delay. */
    void
    scheduleAfter(Seconds delay, EventHandler &target,
                  std::uint32_t tag = 0, double arg = 0.0)
    {
        schedule(_now + delay, target, tag, arg);
    }

    /**
     * Run all events with timestamp <= t_end, then advance now() to
     * t_end even if the queue drains early (the remaining interval is
     * idle time).
     *
     * @return number of events processed by this call.
     */
    std::uint64_t runUntil(Seconds t_end);

    /**
     * Run a single event if one is pending.
     * @return true if an event was executed.
     */
    bool step();

  private:
    /** The (when bits, seq) pair as one integer: the queue's order. */
    __extension__ typedef unsigned __int128 Key;

    struct Entry
    {
        /** IEEE-754 bits of the event time, which is at or above +0. */
        std::uint64_t when = 0;
        std::uint64_t seq = 0;
        EventHandler *target = nullptr;
        double arg = 0.0;
        std::uint32_t tag = 0;

        Key key() const { return (Key{when} << 64) | seq; }
    };

    /**
     * One first slot: each of a rack's many lanes has its own stream,
     * and a lane's in-order core has at most one hop in flight.
     */
    using Stream = RingFifo<Entry, 1>;

    /**
     * Dispatch the earliest pending event if the bits of its time are
     * below `bound` (timeBound() of the last time allowed): advance
     * now() to it and run its handler.
     * @return false if no such event is pending.
     */
    bool dispatchNext(std::uint64_t bound);

    /** The entry for a checked `when` and the next sequence number. */
    Entry entry(Seconds when, EventHandler &target, std::uint32_t tag,
                double arg);

    /** Place `e` at heap slot i, a hole, or below it. */
    void siftDown(std::size_t i, const Entry &e);

    /** The panic of an advanceInline() that broke its contract. */
    [[noreturn]] void badInlineAdvance(Seconds when) const;

    /**
     * Binary min-heap over (when, seq). From the dispatch of a heap
     * event until the next schedule() or dispatch, _heap[0] is a hole
     * (_hole): the schedule() sifts its entry down into it, or the
     * dispatch refills it from the last entry. So the hole outlives a
     * handler that throws without breaking the queue.
     */
    std::vector<Entry> _heap;
    /** The in-order stream, sorted by (when, seq); null until used. */
    std::unique_ptr<Stream> _stream;
    Seconds _now = 0.0;
    Seconds _horizon = -std::numeric_limits<Seconds>::infinity();
    std::uint64_t _seq = 0;
    std::uint64_t _processed = 0;
    bool _hole = false;
};

} // namespace fastcap

#endif // FASTCAP_SIM_EVENT_QUEUE_HPP
