/**
 * @file
 * Metrics-registry semantics: commuting writes, kind/path
 * validation, and the query tree.
 */

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/registry.hpp"
#include "util/logging.hpp"

using namespace fastcap;
using telemetry::Registry;

TEST(Registry, CounterGaugeHistogramSemantics)
{
    Registry reg;

    reg.counter("/t/c").add();
    reg.counter("/t/c").add(4);
    EXPECT_EQ(reg.counter("/t/c").value(), 5u);

    reg.gauge("/t/g").set(2.5);
    EXPECT_EQ(reg.gauge("/t/g").value(), 2.5);
    reg.gauge("/t/g").setMax(1.0); // below: no effect
    EXPECT_EQ(reg.gauge("/t/g").value(), 2.5);
    reg.gauge("/t/g").setMax(9.0);
    EXPECT_EQ(reg.gauge("/t/g").value(), 9.0);

    telemetry::Histogram &h = reg.histogram("/t/h", {1.0, 10.0});
    h.observe(0.5);  // <= 1     -> bucket 0
    h.observe(5.0);  // <= 10    -> bucket 1
    h.observe(50.0); // overflow -> bucket 2
    EXPECT_EQ(h.count(), 3u);
    const std::vector<std::uint64_t> b = h.buckets();
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b[0], 1u);
    EXPECT_EQ(b[1], 1u);
    EXPECT_EQ(b[2], 1u);
}

TEST(Registry, KindAndPathValidation)
{
    Registry reg;
    reg.counter("/t/c");
    EXPECT_THROW(reg.gauge("/t/c"), PanicError);
    EXPECT_THROW(reg.histogram("/t/c", {1.0}), PanicError);

    reg.histogram("/t/h", {1.0, 2.0});
    EXPECT_THROW(reg.histogram("/t/h", {1.0, 3.0}), PanicError);
    EXPECT_THROW(reg.histogram("/t/h2", {}), PanicError);
    EXPECT_THROW(reg.histogram("/t/h3", {2.0, 1.0}), PanicError);

    EXPECT_THROW(reg.counter(""), PanicError);
    EXPECT_THROW(reg.counter("/"), PanicError);
    EXPECT_THROW(reg.counter("no/slash"), PanicError);
    EXPECT_THROW(reg.counter("/trailing/"), PanicError);
    EXPECT_THROW(reg.counter("/a//b"), PanicError);
}

TEST(Registry, ThreadedCommutingWritesAreExact)
{
    Registry reg;
    telemetry::Counter &c = reg.counter("/t/c");
    telemetry::Gauge &g = reg.gauge("/t/hwm");

    constexpr int kThreads = 8;
    constexpr int kAdds = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c, &g, t] {
            for (int i = 0; i < kAdds; ++i) {
                c.add();
                g.setMax(static_cast<double>(t * kAdds + i));
            }
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kAdds);
    EXPECT_EQ(g.value(), static_cast<double>(kThreads * kAdds - 1));
}

TEST(Registry, QuerySelectsExactPathAndSubtree)
{
    Registry reg;
    reg.counter("/a/b").add(1);
    reg.counter("/a/b/c").add(2);
    reg.counter("/a/bc").add(3); // sibling, NOT under /a/b

    const auto sub = reg.query("/a/b");
    ASSERT_EQ(sub.size(), 2u);
    EXPECT_EQ(sub[0].first, "/a/b");
    EXPECT_EQ(sub[1].first, "/a/b/c");

    // Trailing slashes and "/" normalize.
    EXPECT_EQ(reg.query("/a/b/").size(), 2u);
    EXPECT_EQ(reg.query("/").size(), 3u);
    EXPECT_EQ(reg.query("").size(), 3u);
    EXPECT_TRUE(reg.query("/nothing/here").empty());
}

TEST(Registry, SnapshotRendersDeterministically)
{
    Registry reg;
    reg.counter("/t/c").add(42);
    reg.gauge("/t/g").set(0.1 + 0.2); // exercises %.9g rendering
    reg.histogram("/t/h", {1.0, 10.0}).observe(5.0);

    const auto s1 = reg.snapshot();
    const auto s2 = reg.snapshot();
    EXPECT_EQ(s1, s2);
    ASSERT_EQ(s1.size(), 3u);
    EXPECT_EQ(s1[0].first, "/t/c");
    EXPECT_EQ(s1[0].second, "42");
    EXPECT_EQ(s1[1].second, "0.3");
    EXPECT_EQ(s1[2].second, "count=1 le:1=0 le:10=1 le:inf=0");
}
