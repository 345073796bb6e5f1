/**
 * @file
 * Tests for the discrete-event engine: ordering, tie-breaking, time
 * advancement, inline events, the heap's hole and the in-order
 * stream, error handling, and seeded property tests of the
 * (when, seq) dispatch order against a reference sort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace fastcap {
namespace {

/** Records the tag of every event it receives, in arrival order. */
struct Recorder : EventHandler
{
    void onEvent(std::uint32_t tag, double) override
    {
        tags.push_back(static_cast<int>(tag));
    }

    std::vector<int> tags;
};

/** Counts events, ignoring their payload. */
struct Counter : EventHandler
{
    void onEvent(std::uint32_t, double) override { ++fired; }

    int fired = 0;
};

/**
 * Re-schedules itself `gap` after every event until `limit` events
 * have fired (limit < 0: forever).
 */
struct Chain : EventHandler
{
    Chain(EventQueue &q, Seconds gap, int limit)
        : queue(q), gap(gap), limit(limit)
    {
    }

    void
    onEvent(std::uint32_t, double) override
    {
        ++count;
        if (limit < 0 || count < limit)
            queue.scheduleAfter(gap, *this);
    }

    EventQueue &queue;
    Seconds gap;
    int limit;
    int count = 0;
};

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    Recorder r;
    q.schedule(3e-9, r, 3);
    q.schedule(1e-9, r, 1);
    q.schedule(2e-9, r, 2);
    q.runUntil(1e-6);
    EXPECT_EQ(r.tags, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtEqualTimes)
{
    EventQueue q;
    Recorder r;
    for (std::uint32_t i = 0; i < 5; ++i)
        q.schedule(1e-9, r, i);
    q.runUntil(1e-6);
    EXPECT_EQ(r.tags, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilAdvancesToBoundary)
{
    EventQueue q;
    Counter c;
    q.schedule(5e-9, c);
    q.runUntil(100e-9);
    EXPECT_DOUBLE_EQ(q.now(), 100e-9);
}

TEST(EventQueue, EventsBeyondBoundaryStayPending)
{
    EventQueue q;
    Counter c;
    q.schedule(50e-9, c);
    q.schedule(150e-9, c);
    q.runUntil(100e-9);
    EXPECT_EQ(c.fired, 1);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(200e-9);
    EXPECT_EQ(c.fired, 2);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbacksCanScheduleMoreEvents)
{
    // Re-entrant scheduling: a handler schedules into the queue that
    // is dispatching it.
    EventQueue q;
    Chain chain(q, 1e-9, 10);
    q.schedule(0.0, chain);
    q.runUntil(1e-6);
    EXPECT_EQ(chain.count, 10);
    EXPECT_EQ(q.processed(), 10u);
}

TEST(EventQueue, SelfSchedulingRespectsBoundary)
{
    // An event chain must not run past the runUntil() horizon: the
    // window sampling of the epoch loop depends on this.
    EventQueue q;
    Chain chain(q, 10e-9, -1);
    q.schedule(0.0, chain);
    q.runUntil(95e-9);
    EXPECT_EQ(chain.count, 10); // t = 0, 10, ..., 90
    EXPECT_DOUBLE_EQ(q.now(), 95e-9);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    Counter c;
    q.schedule(10e-9, c);
    q.runUntil(20e-9);
    EXPECT_THROW(q.schedule(5e-9, c), PanicError);
}

TEST(EventQueue, SchedulingAtNanPanics)
{
    EventQueue q;
    Counter c;
    EXPECT_THROW(q.schedule(std::nan(""), c), PanicError);
    EXPECT_THROW(q.scheduleAfter(std::nan(""), c), PanicError);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduleAtNowIsAllowed)
{
    EventQueue q;
    q.runUntil(10e-9);
    Counter c;
    q.schedule(10e-9, c);
    q.runUntil(10e-9);
    EXPECT_EQ(c.fired, 1);
}

TEST(EventQueue, StepRunsSingleEvent)
{
    EventQueue q;
    Counter c;
    q.schedule(1e-9, c);
    q.schedule(2e-9, c);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(c.fired, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(c.fired, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, FifoTieBreakSurvivesHeapChurn)
{
    // Regression: extraction must preserve scheduling order for
    // same-timestamp events even after the heap has been grown,
    // drained and re-grown (entries sifted through many positions).
    EventQueue q;
    Counter filler;
    Recorder r;

    // Churn phase: a spread of timestamps, partially drained.
    for (int i = 0; i < 32; ++i)
        q.schedule((32 - i) * 1e-9, filler);
    q.runUntil(16e-9);

    // Interleave equal-time events with earlier and later ones.
    for (std::uint32_t i = 0; i < 8; ++i) {
        q.schedule(100e-9, r, i);
        q.schedule(90e-9 + i * 1e-9, filler);
        q.schedule(110e-9, r, 100 + i);
    }
    q.runUntil(1e-6);

    EXPECT_EQ(r.tags,
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 100, 101,
                                102, 103, 104, 105, 106, 107}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbackStateSurvivesExtraction)
{
    // A handler that schedules enough events to reallocate the heap
    // while it is being dispatched must still see its own event's
    // tag and arg, and every event it scheduled must carry its own.
    struct Fanout : EventHandler
    {
        explicit Fanout(EventQueue &q) : queue(q) {}

        void
        onEvent(std::uint32_t tag, double arg) override
        {
            seen.push_back({tag, arg});
            if (tag == 0)
                for (std::uint32_t i = 1; i <= 16; ++i)
                    queue.scheduleAfter(i * 1e-9, *this, i, 0.5 * i);
        }

        EventQueue &queue;
        std::vector<std::pair<std::uint32_t, double>> seen;
    };

    EventQueue q;
    Fanout f(q);
    q.schedule(1e-9, f, 0, 7.0);
    q.runUntil(1e-6);
    ASSERT_EQ(f.seen.size(), 17u);
    EXPECT_EQ(f.seen[0].first, 0u);
    EXPECT_EQ(f.seen[0].second, 7.0);
    for (std::uint32_t i = 1; i <= 16; ++i) {
        EXPECT_EQ(f.seen[i].first, i);
        EXPECT_EQ(f.seen[i].second, 0.5 * i);
    }
}

TEST(EventQueue, ProcessedCountsAcrossRuns)
{
    EventQueue q;
    Counter c;
    for (int i = 0; i < 7; ++i)
        q.schedule(i * 1e-9, c);
    q.runUntil(3e-9);
    q.runUntil(10e-9);
    EXPECT_EQ(q.processed(), 7u);
}

/**
 * A chain like Chain that runs each next event inline, as a
 * sharded-engine core does: while nothing else is pending and the
 * next event is within the horizon, advanceInline() instead of
 * scheduling it.
 */
struct InlineChain : EventHandler
{
    InlineChain(EventQueue &q, Seconds gap) : queue(q), gap(gap) {}

    void
    onEvent(std::uint32_t, double) override
    {
        for (;;) {
            ++count;
            const Seconds next = queue.now() + gap;
            if (!queue.empty() || !(next <= queue.horizon())) {
                queue.schedule(next, *this);
                return;
            }
            queue.advanceInline(next);
        }
    }

    EventQueue &queue;
    Seconds gap;
    int count = 0;
};

TEST(EventQueue, InlineEventsCountAsProcessed)
{
    // The same chain through the heap and inline: the same events
    // run in each window, including the one exactly at its end, and
    // each counts once in processed() and in runUntil()'s return.
    EventQueue heap_q;
    Chain heap(heap_q, 10e-9, -1);
    heap_q.schedule(0.0, heap);
    EventQueue inline_q;
    InlineChain inl(inline_q, 10e-9);
    inline_q.schedule(0.0, inl);
    for (const Seconds t_end : {95e-9, 100e-9, 100e-9, 345e-9}) {
        const std::uint64_t ran = heap_q.runUntil(t_end);
        EXPECT_EQ(inline_q.runUntil(t_end), ran);
        EXPECT_EQ(inl.count, heap.count);
        EXPECT_EQ(inline_q.processed(), heap_q.processed());
        EXPECT_EQ(inline_q.now(), heap_q.now());
        EXPECT_EQ(inline_q.pending(), 1u);
    }
    EXPECT_EQ(inl.count, 35); // t = 0, 10, ..., 340 ns
}

/** On its event, advanceInline() to `when(queue)`. */
struct InlineAdvancer : EventHandler
{
    using When = Seconds (*)(const EventQueue &);

    InlineAdvancer(EventQueue &q, When w) : queue(q), when(w) {}

    void
    onEvent(std::uint32_t, double) override
    {
        queue.advanceInline(when(queue));
    }

    EventQueue &queue;
    When when;
};

TEST(EventQueue, AdvanceInlineWithEventsPendingPanics)
{
    EventQueue q;
    InlineAdvancer a(q, [](const EventQueue &eq) { return eq.now(); });
    Counter c;
    q.schedule(1e-9, a);
    q.schedule(2e-9, c);
    EXPECT_THROW(q.runUntil(1e-6), PanicError);
    EXPECT_EQ(c.fired, 0);
    // The thrower's heap slot does not linger: the queue runs on.
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.runUntil(1e-6), 1u);
    EXPECT_EQ(c.fired, 1);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, AdvanceInlineIntoThePastPanics)
{
    EventQueue q;
    InlineAdvancer a(
        q, [](const EventQueue &eq) { return eq.now() - 1e-9; });
    q.schedule(5e-9, a);
    EXPECT_THROW(q.runUntil(1e-6), PanicError);
}

TEST(EventQueue, AdvanceInlineToNanPanics)
{
    EventQueue q;
    InlineAdvancer a(q, [](const EventQueue &) { return std::nan(""); });
    q.schedule(5e-9, a);
    EXPECT_THROW(q.runUntil(1e-6), PanicError);
}

TEST(EventQueue, AdvanceInlinePastTheHorizonPanics)
{
    EventQueue q;
    InlineAdvancer a(
        q, [](const EventQueue &eq) { return eq.horizon() + 1e-9; });
    q.schedule(5e-9, a);
    EXPECT_THROW(q.runUntil(1e-6), PanicError);
}

TEST(EventQueue, AdvanceInlineOutsideRunUntilPanics)
{
    // No horizon outside runUntil(): before any run, after one, and
    // from a handler step() dispatches.
    EventQueue q;
    EXPECT_THROW(q.advanceInline(0.0), PanicError);
    q.runUntil(10e-9);
    EXPECT_THROW(q.advanceInline(10e-9), PanicError);
    InlineAdvancer a(q, [](const EventQueue &eq) { return eq.now(); });
    q.schedule(20e-9, a);
    EXPECT_THROW(q.step(), PanicError);
    EXPECT_EQ(q.processed(), 0u);
}

/**
 * Property-test driver: every scheduled event gets an id (its index
 * in `scheduled`, which is also its tag), and handlers randomly
 * schedule more events, on the heap and on the in-order stream. Most
 * times sit on a coarse 1 ns grid, so ties are dense across the heap,
 * its hole and the stream. The rest are the edge values of the
 * queue's integer key: -0.0 and +0.0, subnormals, the smallest
 * normal, 1e300, the largest double and +inf. Adding 1 ns to a huge
 * time changes nothing, so ties are dense up there too.
 */
struct RandomScheduler : EventHandler
{
    RandomScheduler(EventQueue &q, std::uint64_t seed)
        : queue(q), rng(seed)
    {
    }

    /** A timestamp at or after `from`. */
    Seconds
    drawTime(Seconds from)
    {
        const Seconds inf = std::numeric_limits<double>::infinity();
        static const Seconds kEdges[] = {
            -0.0,
            0.0,
            std::numeric_limits<double>::denorm_min(),
            1e-310,
            std::numeric_limits<double>::min(),
            1e300,
            std::numeric_limits<double>::max(),
            inf,
        };
        if (rng.chance(0.9)) {
            const double steps = static_cast<double>(rng.below(6));
            return from + steps * 1e-9;
        }
        // An edge already passed becomes the next double after `from`.
        const Seconds edge = kEdges[rng.below(std::size(kEdges))];
        return edge >= from ? edge : std::nextafter(from, inf);
    }

    void
    add(Seconds when)
    {
        queue.schedule(when, *this, nextId(when), when);
    }

    /** Append at or after the stream's last time. */
    void
    addStream()
    {
        streamLast = drawTime(std::max(queue.now(), streamLast));
        queue.scheduleInOrder(streamLast, *this, nextId(streamLast),
                              streamLast);
        ++streamed;
    }

    std::uint32_t
    nextId(Seconds when)
    {
        const auto id = static_cast<std::uint32_t>(scheduled.size());
        scheduled.push_back(when);
        return id;
    }

    void
    onEvent(std::uint32_t tag, double arg) override
    {
        EXPECT_EQ(arg, scheduled[tag]);
        EXPECT_EQ(queue.now(), scheduled[tag]);
        popped.push_back(tag);
        // 0-3 children: the schedule grows until the cap stops it.
        const std::uint64_t children = rng.below(4);
        for (std::uint64_t i = 0; i < children; ++i)
            if (scheduled.size() < 4000)
                add(drawTime(queue.now()));
        if (scheduled.size() < 4000 && rng.chance(0.3))
            addStream();
    }

    EventQueue &queue;
    Rng rng;
    Seconds streamLast = 0.0;
    int streamed = 0;
    std::vector<Seconds> scheduled; //!< when, by id (= seq order)
    std::vector<std::uint32_t> popped;
};

/**
 * Ids 0..n-1 stably sorted by their `when`. Schedule order is seq
 * order, so this is the (when, seq) order every correct queue must
 * dispatch. -0.0 and +0.0 compare equal, so they tie.
 */
std::vector<std::uint32_t>
stableOrder(const std::vector<Seconds> &when)
{
    std::vector<std::uint32_t> order(when.size());
    for (std::uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return when[a] < when[b];
                     });
    return order;
}

TEST(EventQueue, PopOrderMatchesStableSortOfSchedules)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        EventQueue q;
        RandomScheduler s(q, seed);
        for (int i = 0; i < 64; ++i) {
            s.add(s.drawTime(0.0));
            if (i % 4 == 0)
                s.addStream();
        }
        // Several horizons, so some events wait across runUntil
        // calls, then the huge ones; step() drains the +inf tail.
        for (Seconds t = 2e-9; t < 200e-9; t += 7e-9)
            q.runUntil(t);
        q.runUntil(1e300);
        q.runUntil(std::numeric_limits<double>::max());
        while (q.step()) {
        }

        ASSERT_GT(s.scheduled.size(), 200u) << "seed " << seed;
        EXPECT_GT(s.streamed, 20) << "seed " << seed;
        EXPECT_EQ(s.popped, stableOrder(s.scheduled)) << "seed " << seed;
        EXPECT_EQ(q.processed(), s.scheduled.size());
    }
}

/**
 * Differential driver for the hole and the in-order stream. Times are
 * whole numbers, so sums are exact and the heap and the stream tie
 * often. Each handler schedules 0, 1 or 2 heap events (its hole is
 * refilled from the back, filled, or filled and then pushed below)
 * and, half the time, appends one stream event a fixed delay ahead,
 * as a core's L2 hop does; the delay keeps several in flight.
 */
struct MixedScheduler : EventHandler
{
    static constexpr Seconds kStreamDelay = 3.0;

    MixedScheduler(EventQueue &q, std::uint64_t seed)
        : queue(q), rng(seed)
    {
    }

    std::uint32_t
    nextId(Seconds when)
    {
        const auto id = static_cast<std::uint32_t>(scheduled.size());
        scheduled.push_back(when);
        return id;
    }

    void
    addHeap(Seconds when)
    {
        queue.schedule(when, *this, nextId(when), when);
    }

    void
    addStream()
    {
        const Seconds when = queue.now() + kStreamDelay;
        queue.scheduleInOrder(when, *this, nextId(when), when);
        ++streamed;
    }

    void
    onEvent(std::uint32_t tag, double arg) override
    {
        EXPECT_EQ(arg, scheduled[tag]);
        EXPECT_EQ(queue.now(), scheduled[tag]);
        popped.push_back(tag);
        if (scheduled.size() >= 6000)
            return;
        const std::uint64_t children = rng.below(3);
        ++byChildren[children];
        const bool stream_first = rng.chance(0.5);
        const bool stream = rng.chance(0.5);
        if (stream && stream_first)
            addStream();
        for (std::uint64_t i = 0; i < children; ++i)
            addHeap(queue.now() + static_cast<double>(rng.below(6)));
        if (stream && !stream_first)
            addStream();
    }

    EventQueue &queue;
    Rng rng;
    std::vector<Seconds> scheduled; //!< when, by id (= seq order)
    std::vector<std::uint32_t> popped;
    int byChildren[3] = {0, 0, 0};
    int streamed = 0;
};

TEST(EventQueue, HoleAndStreamDispatchMatchStableSort)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        EventQueue q;
        MixedScheduler s(q, seed);
        for (int i = 0; i < 48; ++i)
            s.addHeap(static_cast<double>(s.rng.below(4)));
        // Several horizons, so both the heap and the stream hold
        // events across runUntil calls; step() drains the rest.
        for (Seconds t = 2.0; q.pending() > 8; t += 7.0)
            q.runUntil(t);
        while (q.step()) {
        }

        ASSERT_GT(s.scheduled.size(), 2000u) << "seed " << seed;
        EXPECT_EQ(s.popped, stableOrder(s.scheduled)) << "seed " << seed;
        EXPECT_EQ(q.processed(), s.scheduled.size());
        EXPECT_GT(s.streamed, 500) << "seed " << seed;
        for (const int n : s.byChildren)
            EXPECT_GT(n, 300) << "seed " << seed;
    }
}

TEST(EventQueue, StreamAndHeapTiesFireInSchedulingOrder)
{
    EventQueue q;
    Recorder r;
    q.scheduleInOrder(5e-9, r, 0);
    q.schedule(5e-9, r, 1);
    q.scheduleInOrder(5e-9, r, 2);
    q.schedule(4e-9, r, 3);
    q.schedule(5e-9, r, 4);
    q.scheduleInOrder(6e-9, r, 5);
    EXPECT_EQ(q.pending(), 6u);
    q.runUntil(1e-6);
    EXPECT_EQ(r.tags, (std::vector<int>{3, 0, 1, 2, 4, 5}));
    EXPECT_TRUE(q.empty());
}

/** Records pending()/empty() on entry, after a stream append and
 *  after a heap schedule. */
struct PendingProbe : EventHandler
{
    explicit PendingProbe(EventQueue &q) : queue(q) {}

    void
    onEvent(std::uint32_t tag, double) override
    {
        seen.push_back({queue.pending(), queue.empty()});
        if (tag != 1)
            return;
        queue.scheduleInOrder(queue.now() + 1e-9, *this, 0);
        seen.push_back({queue.pending(), queue.empty()});
        queue.schedule(queue.now() + 2e-9, *this, 0);
        seen.push_back({queue.pending(), queue.empty()});
    }

    EventQueue &queue;
    std::vector<std::pair<std::size_t, bool>> seen;
};

TEST(EventQueue, PendingInsideAHandlerDiscountsTheHole)
{
    using Seen = std::vector<std::pair<std::size_t, bool>>;
    // Alone in the heap: the hole does not count.
    {
        EventQueue q;
        PendingProbe p(q);
        q.schedule(1e-9, p, 0);
        ASSERT_TRUE(q.step());
        EXPECT_EQ(p.seen, (Seen{{0, true}}));
        EXPECT_TRUE(q.empty());
    }
    // From the heap with one more heap event pending, then a stream
    // append (the hole stays) and a schedule (it fills the hole).
    {
        EventQueue q;
        PendingProbe p(q);
        q.schedule(1e-9, p, 1);
        q.schedule(9e-9, p, 0);
        ASSERT_TRUE(q.step());
        EXPECT_EQ(p.seen, (Seen{{1, false}, {2, false}, {3, false}}));
        EXPECT_EQ(q.pending(), 3u);
        q.runUntil(1e-6);
        EXPECT_EQ(q.processed(), 4u);
        EXPECT_TRUE(q.empty());
    }
    // From the stream: there is no hole, the heap event counts.
    {
        EventQueue q;
        PendingProbe p(q);
        q.scheduleInOrder(1e-9, p, 1);
        q.schedule(9e-9, p, 0);
        ASSERT_TRUE(q.step());
        EXPECT_EQ(p.seen, (Seen{{1, false}, {2, false}, {3, false}}));
        q.runUntil(1e-6);
        EXPECT_EQ(q.processed(), 4u);
        EXPECT_TRUE(q.empty());
    }
}

TEST(EventQueue, AdvanceInlineWhileTheRootIsAHole)
{
    // A handler dispatched from the heap, alone, runs its next event
    // inline and then schedules into its hole; both count.
    struct InlineThenSchedule : EventHandler
    {
        explicit InlineThenSchedule(EventQueue &q) : queue(q) {}

        void
        onEvent(std::uint32_t tag, double) override
        {
            if (tag != 0)
                return;
            queue.advanceInline(queue.now() + 1e-9);
            queue.schedule(queue.now() + 1e-9, *this, 1);
        }

        EventQueue &queue;
    };

    EventQueue q;
    InlineThenSchedule h(q);
    q.schedule(1e-9, h, 0);
    EXPECT_EQ(q.runUntil(10e-9), 3u);
    EXPECT_TRUE(q.empty());

    // A pending stream event is the queue's, so inline panics.
    struct AppendThenInline : EventHandler
    {
        explicit AppendThenInline(EventQueue &q) : queue(q) {}

        void
        onEvent(std::uint32_t, double) override
        {
            queue.scheduleInOrder(queue.now() + 5e-9, counter);
            queue.advanceInline(queue.now() + 1e-9);
        }

        EventQueue &queue;
        Counter counter;
    };

    EventQueue q2;
    AppendThenInline a(q2);
    q2.schedule(1e-9, a);
    EXPECT_THROW(q2.runUntil(10e-9), PanicError);
}

TEST(EventQueue, DecreasingInOrderAppendPanics)
{
    EventQueue q;
    Recorder r;
    q.scheduleInOrder(5e-9, r, 0);
    q.scheduleInOrder(5e-9, r, 1); // a tie is in order
    EXPECT_THROW(q.scheduleInOrder(4e-9, r, 2), PanicError);
    EXPECT_THROW(q.scheduleInOrder(std::nan(""), r, 3), PanicError);
    EXPECT_EQ(q.pending(), 2u);
    q.runUntil(10e-9);
    EXPECT_EQ(r.tags, (std::vector<int>{0, 1}));
    // Drained, the stream takes any time not in the past.
    EXPECT_THROW(q.scheduleInOrder(9e-9, r, 4), PanicError);
    q.scheduleInOrder(10e-9, r, 5);
    q.runUntil(20e-9);
    EXPECT_EQ(r.tags, (std::vector<int>{0, 1, 5}));
}

// The key compares the bits of `when`, and -0.0's bits order above
// every positive time, so a -0.0 accepted at now() == 0 is stored as
// +0.0: it ties with +0.0 and fires in scheduling order.
TEST(EventQueue, NegativeZeroTiesWithZeroInSchedulingOrder)
{
    EventQueue q;
    Recorder r;
    q.schedule(1e-9, r, 0);
    q.schedule(-0.0, r, 1);
    q.scheduleInOrder(0.0, r, 2);
    q.schedule(0.0, r, 3);
    q.scheduleInOrder(-0.0, r, 4);
    q.schedule(-0.0, r, 5);
    // A negative bound admits nothing; -0.0 admits the zero times.
    EXPECT_EQ(q.runUntil(-1e-9), 0u);
    EXPECT_EQ(q.runUntil(-0.0), 5u);
    EXPECT_EQ(r.tags, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(q.now(), 0.0);
    EXPECT_FALSE(std::signbit(q.now()));
    q.runUntil(1e-6);
    EXPECT_EQ(r.tags, (std::vector<int>{1, 2, 3, 4, 5, 0}));
}

TEST(EventQueue, InfinityFiresAfterEveryFiniteTime)
{
    const Seconds inf = std::numeric_limits<double>::infinity();
    const Seconds max = std::numeric_limits<double>::max();
    EventQueue q;
    Recorder r;
    q.schedule(inf, r, 0);
    q.scheduleInOrder(max, r, 1);
    q.schedule(max, r, 2);
    q.scheduleInOrder(inf, r, 3);
    q.schedule(1.0, r, 4);
    q.schedule(inf, r, 5);
    q.runUntil(max);
    EXPECT_EQ(r.tags, (std::vector<int>{4, 1, 2}));
    EXPECT_EQ(q.pending(), 3u);
    q.runUntil(inf);
    EXPECT_EQ(r.tags, (std::vector<int>{4, 1, 2, 0, 3, 5}));
    EXPECT_EQ(q.now(), inf);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SubnormalAndHugeTimesOrderByValue)
{
    const Seconds tiny = std::numeric_limits<double>::denorm_min();
    const Seconds normal = std::numeric_limits<double>::min();
    const std::vector<Seconds> when = {
        1e300, normal, 1e-310, 0.0, 1.0, tiny, 2 * tiny,
        std::nextafter(normal, 0.0), 1e300, std::nextafter(1e300, 2e300),
        1e-310, tiny,
    };
    EventQueue q;
    Recorder r;
    for (std::size_t i = 0; i < when.size(); ++i)
        q.schedule(when[i], r, static_cast<std::uint32_t>(i));
    // A bound between two subnormals splits them exactly.
    q.runUntil(2 * tiny);
    EXPECT_EQ(r.tags, (std::vector<int>{3, 5, 11, 6}));
    while (q.step()) {
    }
    std::vector<int> expected;
    for (const std::uint32_t id : stableOrder(when))
        expected.push_back(static_cast<int>(id));
    EXPECT_EQ(r.tags, expected);
}

} // namespace
} // namespace fastcap
