/**
 * @file
 * Self-tests for the benchmark's metric math (perfbench/src/metrics.hh):
 * percentile selection, the capacity pick over fixed rates, the table
 * 6.2 fidelity error and failure accounting.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "metrics.hh"
#include "stats/stats.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> xs;
    for (std::size_t i = n; i >= 1; --i) // unsorted on purpose
        xs.push_back(double(i));
    return xs;
}

} // anonymous namespace

TEST(Percentile, NearestRankOnOneToThousand)
{
    const auto xs = oneTo(1000);
    Percentile p99 = nearestRank(xs, 99.0);
    EXPECT_EQ(p99.value, 990.0);
    EXPECT_EQ(p99.beyond, 10u);
    EXPECT_EQ(p99.samples, 1000u);
    EXPECT_EQ(nearestRank(xs, 50.0).value, 500.0);
    EXPECT_EQ(nearestRank(xs, 100.0).value, 1000.0);
    EXPECT_EQ(nearestRank(xs, 0.0).value, 1.0);
}

TEST(Percentile, MatchesStatsQuantile)
{
    // One definition of a percentile across the benchmark, the serve
    // metrics and serve_report.
    for (std::size_t n : {1u, 7u, 12u, 100u, 999u, 1000u, 10000u, 12000u}) {
        const auto xs = oneTo(n);
        opac::stats::Quantile q;
        for (double x : xs)
            q.sample(x);
        for (double pct : {0.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0})
            EXPECT_EQ(nearestRank(xs, pct).value, q.percentile(pct))
                << "n=" << n << " p" << pct;
    }
}

TEST(Percentile, EmptyAndSingleSample)
{
    EXPECT_EQ(nearestRank({}, 99.0).samples, 0u);
    Percentile one = nearestRank({7.0}, 99.0);
    EXPECT_EQ(one.value, 7.0);
    EXPECT_EQ(one.beyond, 0u);
}

TEST(Percentile, HighestSupportedNeedsTenBeyond)
{
    // 1000 samples: p99.9 leaves 1 beyond, p99 leaves 10.
    EXPECT_EQ(highestSupported(oneTo(1000)).pct, 99.0);
    // 10000 samples: 99.9/100 * 10000 rounds a hair above 9990, so
    // p99.9 is rank 9991 with 9 beyond -> falls to p99.
    EXPECT_EQ(nearestRank(oneTo(10000), 99.9).value, 9991.0);
    EXPECT_EQ(highestSupported(oneTo(10000)).pct, 99.0);
    // 12000 samples support p99.9 (rank 11989, 11 beyond).
    EXPECT_EQ(highestSupported(oneTo(12000)).pct, 99.9);
    // 100 samples: p95 leaves 5, p90 leaves 10.
    EXPECT_EQ(highestSupported(oneTo(100)).pct, 90.0);
    // 999 samples: p99 is rank 990 with 9 beyond -> falls to p95.
    EXPECT_EQ(highestSupported(oneTo(999)).pct, 95.0);
    // Too few for any: the median comes back, with its thin support.
    Percentile thin = highestSupported(oneTo(12));
    EXPECT_EQ(thin.pct, 50.0);
    EXPECT_LT(thin.beyond, 10u);
}

TEST(Percentile, MissingOutcomesRankAboveEveryLatency)
{
    // 980 real latencies and 20 rejected jobs: p99 is a missing one.
    std::vector<double> xs = oneTo(980);
    for (int i = 0; i < 20; ++i)
        xs.push_back(std::numeric_limits<double>::infinity());
    EXPECT_TRUE(std::isinf(nearestRank(xs, 99.0).value));
    EXPECT_EQ(nearestRank(xs, 50.0).value, 500.0);
}

TEST(Capacity, PicksHighestRateMeetingLimit)
{
    const std::vector<RatePhase> phases = {
        {100.0, 5000.0, 0}, {200.0, 9000.0, 0}, {300.0, 40000.0, 0}};
    EXPECT_EQ(capacityPick(phases, 10000.0), 200.0);
    EXPECT_EQ(capacityPick(phases, 50000.0), 300.0);
    EXPECT_EQ(capacityPick(phases, 1000.0), 0.0);
    // A limit met exactly counts as met.
    EXPECT_EQ(capacityPick(phases, 9000.0), 200.0);
}

TEST(Capacity, BadJobsDisqualifyARateWhateverItsLatency)
{
    const std::vector<RatePhase> phases = {
        {300.0, 100.0, 1}, {100.0, 5000.0, 0}, {200.0, 6000.0, 2}};
    EXPECT_EQ(capacityPick(phases, 10000.0), 100.0);
}

TEST(Capacity, InfiniteP99NeverMeetsTheLimit)
{
    const std::vector<RatePhase> phases = {
        {100.0, std::numeric_limits<double>::infinity(), 0}};
    EXPECT_EQ(capacityPick(phases, 1e18), 0.0);
}

TEST(PaperRelErr, AgainstTableSixTwo)
{
    EXPECT_DOUBLE_EQ(kPaperConvMaPerCycle, 2.941);
    EXPECT_DOUBLE_EQ(paperRelErr(2.941), 0.0);
    EXPECT_NEAR(paperRelErr(3.017), 0.076 / 2.941, 1e-12);
    EXPECT_NEAR(paperRelErr(2.865), 0.076 / 2.941, 1e-12);
}

TEST(Tally, FailedFracCountsChecksAndJobs)
{
    Tally t;
    EXPECT_EQ(t.failedFrac(), 0.0);
    EXPECT_TRUE(t.check(true));
    EXPECT_FALSE(t.check(false));
    // 98 served jobs, one of them failed, rejected or incorrect.
    for (int i = 0; i < 98; ++i)
        t.check(i != 40);
    EXPECT_EQ(t.attempted(), 100u);
    EXPECT_EQ(t.failed(), 2u);
    EXPECT_DOUBLE_EQ(t.failedFrac(), 0.02);
}

TEST(Median, OddEvenEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}
