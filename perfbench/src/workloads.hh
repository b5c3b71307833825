/**
 * @file
 * The three benchmark workloads and what they report.
 *
 * Every workload fills the same two metric tables — end-to-end and
 * per-layer — so each run prints every metric by name; a layer a
 * workload bypasses reads 0 there, which is itself the evidence that
 * the workloads stress different layers.
 */

#ifndef OPAC_PERFBENCH_WORKLOADS_HH
#define OPAC_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.hh"
#include "spans.hh"

namespace perfbench
{

/** Command-line settings of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;   //!< span file written by a traced run
    std::string workDir;    //!< scratch space inside the checkout

    // serve_durable (from perfbench/spec.json).
    std::vector<double> rates;   //!< below, near, above (jobs/Mcyc)
    std::vector<unsigned> jobs;  //!< jobs per phase
    double latencyLimit = 0.0;   //!< p99 limit, cycles
};

/** What a workload measured. */
struct Outcome
{
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    std::vector<std::string> report; //!< human-readable lines
    Tally tally;                     //!< checks and jobs
};

/** Derive an independent stream seed from the run seed. */
inline std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 finalizer over (seed, stream).
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) | 1;
}

/** "name: median X unit, pNN Y (n=.., .. beyond)" for a timing. */
std::string describeTiming(const std::string &name,
                           const std::vector<double> &xs,
                           const char *unit);

/** Peak resident set of this process in MB. */
double peakRssMb();

Outcome runGemmStream(const Options &opt, SpanRecorder &rec);
Outcome runConvHostbound(const Options &opt, SpanRecorder &rec);
Outcome runServeDurable(const Options &opt, SpanRecorder &rec);

} // namespace perfbench

#endif // OPAC_PERFBENCH_WORKLOADS_HH
