/**
 * @file
 * The repository benchmark: one seeded workload per invocation.
 *
 *   opac_perfbench --workload gemm_stream|conv_hostbound|serve_durable
 *                  --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE] [--work-dir DIR]
 *                  [--rates B,N,A --jobs B,N,A
 *                   --latency-limit CYC]   (serve_durable)
 *
 * Prints a human-readable report, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics untraced, the per-layer metrics traced. Exits 1 when any
 * correctness check failed, 2 on a usage error. perfbench/run.py
 * builds this program and supplies the serve settings from
 * perfbench/spec.json.
 */

#include <sys/resource.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "workloads.hh"

namespace perfbench
{

std::string
describeTiming(const std::string &name, const std::vector<double> &xs,
               const char *unit)
{
    const Percentile med = nearestRank(xs, 50.0);
    const Percentile hi = highestSupported(xs);
    std::string out = opac::strfmt("%s: median %.6g %s (n=%zu)",
                                   name.c_str(), median(xs), unit,
                                   xs.size());
    if (hi.beyond >= 10)
        out += opac::strfmt(", p%g %.6g %s (%zu beyond)", hi.pct,
                            hi.value, unit, hi.beyond);
    else
        out += opac::strfmt(", no percentile above p50 has 10 samples "
                            "beyond it (p50 has %zu)", med.beyond);
    return out;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

} // namespace perfbench

namespace
{

using namespace perfbench;

/** A metric's name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, gated by BENCHMARK.json; every workload sets
 *  every one. */
const std::vector<MetricDef> &
endToEndDefs()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"sim_ma_per_s", "MA/s"},
        {"jobs_per_s", "1/s"},
        {"ma_per_cycle", "MA/cycle"},
        {"p50_latency_cyc", "cyc"},
        {"p99_latency_cyc", "cyc"},
        {"capacity_jobs_per_mcyc", "jobs/Mcyc"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

/** Per-layer metrics, printed by a traced run (0 = layer bypassed). */
const std::vector<MetricDef> &
perLayerDefs()
{
    static const std::vector<MetricDef> defs = {
        {"coproc.build_s", "s"},
        {"kernels.install_s", "s"},
        {"planner.plan_s", "s"},
        {"planner.host_ops", "count"},
        {"sim.run_s", "s"},
        {"sim.cycles", "cyc"},
        {"sim.ns_per_cycle", "ns"},
        {"sim.skipped_frac", "frac"},
        {"cell.issued", "count"},
        {"cell.busy_frac", "frac"},
        {"cell.stall_src_empty_frac", "frac"},
        {"cell.stall_dst_full_frac", "frac"},
        {"cell.stall_reg_pending_frac", "frac"},
        {"cell.ns_per_issued", "ns"},
        {"fast_tier.burst_frac", "frac"},
        {"fast_tier.turbo_frac", "frac"},
        {"fast_tier.burst_yield", "frac"},
        {"fast_tier.fallback_body", "count"},
        {"softfloat.ops", "count"},
        {"fifo.words_moved", "words"},
        {"fifo.parity_corrected", "count"},
        {"host.words_sent", "words"},
        {"host.words_received", "words"},
        {"host.bus_words_per_ma", "words/MA"},
        {"host.stall_fifo_full_frac", "frac"},
        {"host.busy_frac", "frac"},
        {"blasref.verify_s", "s"},
        {"serve.submit_s", "s"},
        {"serve.drain_s", "s"},
        {"serve.queue_wait_p99_cyc", "cyc"},
        {"serve.service_p50_cyc", "cyc"},
        {"serve.batches", "count"},
        {"serve.batch_jobs_mean", "jobs"},
        {"serve.shard_util", "frac"},
        {"serve.execute_wall_ms_p50", "ms"},
        {"serve.rejected", "count"},
        {"serve.failovers", "count"},
        {"snap.checkpoint_bytes", "bytes"},
        {"snap.resume_s", "s"},
        {"trace.overhead_frac", "frac"},
    };
    return defs;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "opac_perfbench: %s\nusage: opac_perfbench --workload "
                 "gemm_stream|conv_hostbound|serve_durable --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--work-dir DIR] [--rates B,N,A --jobs B,N,A "
                 "--latency-limit CYC]\n",
                 why);
    std::exit(2);
}

/** A positive finite number; usage error otherwise. */
double
positive(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v <= 0)
        usage(("bad value for " + flag + ": '" + text + "'").c_str());
    return v;
}

/** Comma-separated positive finite numbers. */
std::vector<double>
positiveList(const std::string &flag, const std::string &text)
{
    std::vector<double> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(positive(flag, item));
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            opt.workload = v;
        } else if (flag == "--seed") {
            char *end = nullptr;
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || v[0] == '-' || *end != '\0')
                usage(("bad value for --seed: '" + v + "'").c_str());
            haveSeed = true;
        } else if (flag == "--seconds") {
            opt.seconds = positive(flag, v);
            haveSeconds = true;
        } else if (flag == "--trace") {
            opt.trace = v == "1";
            haveTrace = v == "0" || v == "1";
        } else if (flag == "--trace-out") {
            opt.traceOut = v;
        } else if (flag == "--work-dir") {
            opt.workDir = v;
        } else if (flag == "--rates") {
            opt.rates = positiveList(flag, v);
        } else if (flag == "--jobs") {
            for (double n : positiveList(flag, v)) {
                if (n != std::floor(n) || n > 1e7)
                    usage("--jobs takes whole numbers up to 1e7");
                opt.jobs.push_back(unsigned(n));
            }
        } else if (flag == "--latency-limit") {
            opt.latencyLimit = positive(flag, v);
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (opt.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (opt.workDir.empty())
        opt.workDir = "perfbench_work";
    return opt;
}

/** Print @p defs from @p values as "name value unit" lines and JSON. */
std::string
emit(const std::vector<MetricDef> &defs,
     const std::map<std::string, double> &values)
{
    std::string json = "{";
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        double v = it == values.end() ? 0.0 : it->second;
        std::printf("  %-28s %.17g %s\n", d.name, v, d.unit);
        // JSON has no infinity: a latency percentile that lands on a
        // failed or rejected job (+inf) prints as the largest double.
        if (std::isinf(v))
            v = std::copysign(DBL_MAX, v);
        json += opac::strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": "
                             "\"%s\"}",
                             json.size() > 1 ? ", " : "", d.name, v,
                             d.unit);
    }
    return json + "}";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    SpanRecorder rec(opt.trace);
    Outcome out;
    if (opt.workload != "gemm_stream" && opt.workload != "conv_hostbound"
        && opt.workload != "serve_durable")
        usage(("unknown workload " + opt.workload).c_str());
    try {
        if (opt.workload == "gemm_stream")
            out = runGemmStream(opt, rec);
        else if (opt.workload == "conv_hostbound")
            out = runConvHostbound(opt, rec);
        else
            out = runServeDurable(opt, rec);
    } catch (const std::exception &e) {
        // An error the program raised counts as a failed check; the
        // metrics measured so far are lost with the workload.
        out.tally.check(false);
        out.report.push_back(std::string("workload aborted: ") + e.what());
    }

    std::printf("workload %s, seed %llu, %g s, trace %d\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.seconds, opt.trace ? 1 : 0);
    for (const std::string &line : out.report)
        std::printf("%s\n", line.c_str());
    std::printf("failed_frac: %.17g (%llu of %llu checks and jobs "
                "failed)\n",
                out.tally.failedFrac(),
                (unsigned long long)out.tally.failed(),
                (unsigned long long)out.tally.attempted());
    if (opt.trace && !opt.traceOut.empty()) {
        if (rec.write(opt.traceOut, opt.workload))
            std::printf("spans: %zu written to %s\n", rec.spans().size(),
                        opt.traceOut.c_str());
        else
            std::fprintf(stderr, "opac_perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
    }
    std::printf(opt.trace ? "per-layer metrics:\n"
                          : "end-to-end metrics:\n");
    const std::string metrics =
        opt.trace ? emit(perLayerDefs(), out.perLayer)
                  : emit(endToEndDefs(), out.endToEnd);
    const bool correct = out.tally.attempted() > 0
                         && out.tally.failed() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)out.tally.attempted(),
                (unsigned long long)out.tally.failed(), metrics.c_str());
    return correct ? 0 : 1;
}
