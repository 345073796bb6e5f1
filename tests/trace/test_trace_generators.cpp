/**
 * @file
 * Statistical property tests for every trace generator, under fixed
 * seeds so the assertions are exact-repeatable rather than flaky:
 * Poisson inter-arrival moments, MMPP burstiness above the Poisson
 * baseline, sine period/amplitude recovery, flash-crowd peak
 * placement, batch correlation — plus spec parse/print round-trips
 * and the reproducibility contract (same spec = same stream).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "trace/trace_generator.hpp"
#include "util/logging.hpp"

namespace fastcap {
namespace {

std::vector<TraceEvent>
drain(const std::string &spec)
{
    auto src = makeTraceGenerator(TraceGenSpec::parse(spec));
    std::vector<TraceEvent> out;
    TraceEvent ev;
    while (src->next(ev))
        out.push_back(ev);
    return out;
}

std::vector<Seconds>
gaps(const std::vector<TraceEvent> &evs)
{
    std::vector<Seconds> out;
    for (std::size_t i = 1; i < evs.size(); ++i)
        out.push_back(evs[i].arrival - evs[i - 1].arrival);
    return out;
}

double
mean(const std::vector<double> &xs)
{
    double s = 0.0;
    for (const double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

/** Coefficient of variation: 1 for exponential inter-arrivals. */
double
cv(const std::vector<double> &xs)
{
    const double m = mean(xs);
    double ss = 0.0;
    for (const double x : xs)
        ss += (x - m) * (x - m);
    return std::sqrt(ss / static_cast<double>(xs.size())) / m;
}

TEST(TraceGenerators, EveryKindIsWellFormed)
{
    for (const char *spec :
         {"poisson,rate=200,horizon=0.5,seed=3",
          "mmpp,rate=100,horizon=0.5,seed=3",
          "sine,rate=300,horizon=0.5,seed=3",
          "flash,rate=80,horizon=1,seed=3",
          "batch,rate=50,horizon=0.5,max-cores=4,seed=3"}) {
        const auto evs = drain(spec);
        ASSERT_FALSE(evs.empty()) << spec;
        Seconds last = 0.0;
        for (const TraceEvent &ev : evs) {
            EXPECT_GE(ev.arrival, last) << spec;
            EXPECT_GT(ev.duration, 0.0) << spec;
            EXPECT_GE(ev.cores, 1) << spec;
            last = ev.arrival;
        }
    }
}

TEST(TraceGenerators, SameSpecSameStream)
{
    const std::string spec = "mmpp,rate=150,horizon=1,seed=77";
    const auto a = drain(spec);
    const auto b = drain(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].app, b[i].app);
        EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
        EXPECT_EQ(a[i].cores, b[i].cores);
    }
    // ...and a different seed gives a different stream.
    const auto c = drain("mmpp,rate=150,horizon=1,seed=78");
    ASSERT_FALSE(c.empty());
    EXPECT_NE(a.front().arrival, c.front().arrival);
}

TEST(TraceGenerators, PoissonMomentsMatchTheRate)
{
    const auto evs = drain("poisson,rate=1000,horizon=2,seed=42");
    // ~2000 arrivals expected; +-10% is ~4.5 sigma.
    EXPECT_GT(evs.size(), 1800u);
    EXPECT_LT(evs.size(), 2200u);
    const auto g = gaps(evs);
    EXPECT_NEAR(mean(g), 1e-3, 1e-4);
    // Exponential gaps: CV == 1.
    EXPECT_GT(cv(g), 0.85);
    EXPECT_LT(cv(g), 1.15);
    // Durations are exponential with the configured mean.
    std::vector<double> durs;
    for (const TraceEvent &ev : evs)
        durs.push_back(ev.duration);
    EXPECT_NEAR(mean(durs), 0.02, 0.002);
}

TEST(TraceGenerators, MmppIsBurstierThanPoisson)
{
    const auto evs = drain(
        "mmpp,rate=100,burst-factor=10,mean-burst=0.02,"
        "mean-quiet=0.1,horizon=5,seed=7");
    // Mixing two exponential rates lifts the CV well above 1.
    EXPECT_GT(cv(gaps(evs)), 1.3);
    // Overall rate sits between quiet (100) and burst (1000).
    const double jobsPerSec =
        static_cast<double>(evs.size()) / 5.0;
    EXPECT_GT(jobsPerSec, 100.0);
    EXPECT_LT(jobsPerSec, 1000.0);
}

TEST(TraceGenerators, SineRecoversAmplitudeAndPeriod)
{
    const double amp = 0.8, period = 0.25;
    const auto evs = drain(
        "sine,rate=2000,amplitude=0.8,period=0.25,horizon=5,seed=9");
    ASSERT_GT(evs.size(), 5000u);
    // For intensity r*(1 + a*sin(2*pi*t/T)), the arrival-weighted
    // mean of sin(2*pi*t/T) over whole cycles is a/2 — a one-term
    // Fourier projection recovers the amplitude.
    double s = 0.0, cmax = 0.0;
    for (const TraceEvent &ev : evs)
        s += std::sin(2.0 * M_PI * ev.arrival / period);
    const double ampEst =
        2.0 * s / static_cast<double>(evs.size());
    EXPECT_NEAR(ampEst, amp, 0.15);
    // Projecting at half the true frequency finds no signal, which
    // pins the period rather than just "some modulation exists".
    for (const TraceEvent &ev : evs)
        cmax += std::sin(2.0 * M_PI * ev.arrival / (2.0 * period));
    EXPECT_LT(std::abs(2.0 * cmax / static_cast<double>(evs.size())),
              0.15);
}

TEST(TraceGenerators, FlashCrowdPeaksInsideItsWindow)
{
    const auto evs = drain(
        "flash,rate=80,flash-start=0.4,flash-duration=0.05,"
        "flash-factor=25,horizon=1,seed=11");
    // Bin arrivals at the window width: the flash bin must dominate.
    const double width = 0.05;
    std::vector<int> bins(20, 0);
    for (const TraceEvent &ev : evs) {
        const auto b = std::min<std::size_t>(
            static_cast<std::size_t>(ev.arrival / width), 19);
        ++bins[b];
    }
    const auto peak =
        std::max_element(bins.begin(), bins.end()) - bins.begin();
    EXPECT_EQ(peak, 8); // [0.4, 0.45)
    // Expected ~100 arrivals in the flash bin vs ~4 per quiet bin.
    EXPECT_GT(bins[8], 50);
}

TEST(TraceGenerators, BatchesCorrelateInstantAndApp)
{
    const auto evs = drain(
        "batch,rate=100,batch-mean=3,max-cores=4,horizon=5,seed=13");
    ASSERT_GT(evs.size(), 500u);
    std::size_t batches = 0, i = 0;
    bool sawMultiJobBatch = false, sawMixedCores = false;
    while (i < evs.size()) {
        std::size_t j = i;
        std::set<int> coresSeen;
        while (j < evs.size() &&
               evs[j].arrival == evs[i].arrival) {
            // Batch members share the instant *and* the app.
            EXPECT_EQ(evs[j].app, evs[i].app);
            EXPECT_LE(evs[j].cores, 4);
            coresSeen.insert(evs[j].cores);
            ++j;
        }
        sawMultiJobBatch |= (j - i) > 1;
        sawMixedCores |= coresSeen.size() > 1;
        ++batches;
        i = j;
    }
    EXPECT_TRUE(sawMultiJobBatch);
    EXPECT_TRUE(sawMixedCores);
    // Mean batch size ~ batchMean (uniform on [1, 2*mean-1]).
    const double meanSize = static_cast<double>(evs.size()) /
        static_cast<double>(batches);
    EXPECT_NEAR(meanSize, 3.0, 0.5);
}

TEST(TraceGenerators, EventCapAndHorizonBothTerminate)
{
    EXPECT_EQ(
        drain("poisson,rate=1000,horizon=100,events=250,seed=1")
            .size(),
        250u);
    for (const TraceEvent &ev :
         drain("poisson,rate=500,horizon=0.25,seed=1"))
        EXPECT_LT(ev.arrival, 0.25);
}

TEST(TraceGenerators, SpecRoundTripsThroughToString)
{
    for (const char *text :
         {"poisson,rate=500,horizon=0.2,seed=7",
          "mmpp,rate=100,burst-factor=10,mean-burst=0.02,"
          "mean-quiet=0.08,seed=5",
          "sine,rate=300,amplitude=0.9,period=0.05,seed=2",
          "flash,rate=80,flash-start=0.04,flash-duration=0.02,"
          "flash-factor=25,seed=6",
          "batch,rate=60,batch-mean=4,max-cores=8,"
          "apps=swim+applu,events=10,seed=8"}) {
        const TraceGenSpec spec = TraceGenSpec::parse(text);
        const TraceGenSpec again =
            TraceGenSpec::parse(spec.toString());
        EXPECT_EQ(spec.toString(), again.toString()) << text;
        // The canonical string regenerates the identical stream.
        const auto a = drain(text);
        const auto b = drain(spec.toString());
        ASSERT_EQ(a.size(), b.size()) << text;
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival) << text;
    }
}

TEST(TraceGenerators, RejectsBadSpecs)
{
    EXPECT_THROW(TraceGenSpec::parse(""), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("warp,rate=1"), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,rate=0"), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,rate=-5"), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,horizon=0"),
                 FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,horizon=inf"),
                 FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,mean-duration=0"),
                 FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,max-cores=0"),
                 FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,seed=-1"), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,bogus=1"), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,rate"), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,apps=notanapp"),
                 FatalError);
    EXPECT_THROW(TraceGenSpec::parse("sine,amplitude=1"),
                 FatalError);
    EXPECT_THROW(TraceGenSpec::parse("mmpp,burst-factor=0.5"),
                 FatalError);
    EXPECT_THROW(TraceGenSpec::parse("flash,flash-factor=0.5"),
                 FatalError);
    EXPECT_THROW(TraceGenSpec::parse("batch,batch-mean=0.5"),
                 FatalError);
}

TEST(TraceGenerators, RejectsRepeatedKeysAndEmptyFields)
{
    // A repeated key no longer keeps its last value.
    EXPECT_THROW(TraceGenSpec::parse("poisson,rate=5,rate=7"),
                 FatalError);
    EXPECT_THROW(
        TraceGenSpec::parse("poisson,rate=5,rate=7,apps=,horizon=0.2"),
        FatalError);
    // An empty app list no longer falls back to MIX1.
    EXPECT_THROW(TraceGenSpec::parse("poisson,apps="), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,apps=milc+"), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,apps=milc++gcc"),
                 FatalError);
    // A trailing ',' is an empty field.
    EXPECT_THROW(TraceGenSpec::parse("poisson,rate=5,"), FatalError);
    EXPECT_THROW(TraceGenSpec::parse("poisson,,rate=5"), FatalError);
}

TEST(TraceGenerators, CanonicalStringKeepsEveryDigit)
{
    TraceGenSpec g = TraceGenSpec::parse("poisson,rate=500,seed=3");
    g.rate = 1.0 / 3.0;
    g.horizon = 0.1 + 0.2;
    const TraceGenSpec again = TraceGenSpec::parse(g.toString());
    EXPECT_EQ(again.rate, g.rate);
    EXPECT_EQ(again.horizon, g.horizon);
    // Values %g already carries exactly keep their short form.
    EXPECT_EQ(TraceGenSpec::parse("poisson,rate=120,horizon=0.1")
                  .toString()
                  .rfind("poisson,rate=120,horizon=0.1,", 0),
              0u);
}

} // namespace
} // namespace fastcap
