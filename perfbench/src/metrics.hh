/**
 * @file
 * The benchmark's metric math, kept free of simulator types so the
 * self-tests (perfbench/tests) can pin it down on hand-made inputs:
 * percentile selection, the capacity pick over fixed arrival rates,
 * the table 6.2 fidelity error and failure accounting.
 */

#ifndef OPAC_PERFBENCH_METRICS_HH
#define OPAC_PERFBENCH_METRICS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** A percentile of a sample together with the support behind it. */
struct Percentile
{
    double pct = 0.0;        //!< requested percentile, e.g. 99
    double value = 0.0;      //!< nearest-rank sample value
    std::size_t samples = 0; //!< sample count
    std::size_t beyond = 0;  //!< samples strictly ranked above it
};

/**
 * Nearest-rank percentile: the sample at 1-based rank
 * ceil(pct/100 * n), clamped to [1, n]. The rank is computed exactly
 * as stats::Quantile::percentile computes it, so a p99 here equals the
 * p99 of Server::metricsJson() on the same samples. No rounding slack
 * is taken off: in double arithmetic 99.9/100 * 10000 is a hair above
 * 9990, so p99.9 of 1..10000 is rank 9991. Missing outcomes (a failed
 * or rejected request) enter the sample as +inf, so they rank above
 * every real latency and count as missing any limit. An empty sample
 * yields value 0 with samples 0.
 */
inline Percentile
nearestRank(std::vector<double> xs, double pct)
{
    Percentile p;
    p.pct = pct;
    p.samples = xs.size();
    if (xs.empty())
        return p;
    std::sort(xs.begin(), xs.end());
    const double exact = pct / 100.0 * double(xs.size());
    std::size_t rank = std::size_t(exact);
    if (double(rank) < exact)
        ++rank;
    rank = std::clamp<std::size_t>(rank, 1, xs.size());
    p.value = xs[rank - 1];
    p.beyond = xs.size() - rank;
    return p;
}

/** The percentiles a report may quote, highest first. */
inline const std::vector<double> &
reportablePercentiles()
{
    static const std::vector<double> pcts = {99.9, 99.0, 95.0, 90.0,
                                             75.0, 50.0};
    return pcts;
}

/**
 * The highest reportable percentile that still has at least
 * @p min_beyond samples ranked above it. When even the median lacks
 * that support the median is returned; callers print its `beyond`
 * count so the reader sees how thin it is.
 */
inline Percentile
highestSupported(const std::vector<double> &xs,
                 std::size_t min_beyond = 10)
{
    for (double pct : reportablePercentiles()) {
        Percentile p = nearestRank(xs, pct);
        if (p.beyond >= min_beyond)
            return p;
    }
    return nearestRank(xs, 50.0);
}

/** One fixed-rate phase of an open-loop serving run. */
struct RatePhase
{
    double rate = 0.0;        //!< arrivals per simulated megacycle
    double p99 = 0.0;         //!< nearest-rank p99 latency (cycles)
    std::uint64_t bad = 0;    //!< failed + rejected + incorrect jobs
};

/**
 * The highest fixed rate whose p99 latency meets @p limit with no
 * failed, rejected or incorrect job; 0 when no rate qualifies. Phases
 * may come in any order.
 */
inline double
capacityPick(const std::vector<RatePhase> &phases, double limit)
{
    double best = 0.0;
    for (const RatePhase &ph : phases)
        if (ph.bad == 0 && ph.p99 <= limit && ph.rate > best)
            best = ph.rate;
    return best;
}

/**
 * Table 6.2's useful multiply-adds per cycle for the 5x5 convolution
 * of a 1024x1024 image at P=16, Tf=512, tau=4.
 */
constexpr double kPaperConvMaPerCycle = 2.941;

/** |measured - paper| / paper against the table 6.2 constant. */
inline double
paperRelErr(double measured, double paper = kPaperConvMaPerCycle)
{
    return std::fabs(measured - paper) / paper;
}

/**
 * Outcome accounting behind failed_frac and the result line's
 * attempted/failed counts: every correctness check and every served
 * job is one attempt.
 */
class Tally
{
  public:
    /** Record one attempt; returns @p ok for chaining. */
    bool
    check(bool ok)
    {
        ++attempted_;
        if (!ok)
            ++failed_;
        return ok;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    double
    failedFrac() const
    {
        return attempted_ ? double(failed_) / double(attempted_) : 0.0;
    }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Median of a sample (mean of the middle pair when even). */
inline double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

} // namespace perfbench

#endif // OPAC_PERFBENCH_METRICS_HH
