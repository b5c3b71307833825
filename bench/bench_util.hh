/**
 * @file
 * Shared helpers for the table-reproduction benches: system builders,
 * workload generators and result formatting.
 *
 * The benches run the simulator in timing-only arithmetic mode
 * (FpKind::Token): a test asserts that cycle counts are identical
 * across FP back-ends, so this changes nothing but wall-clock time.
 */

#ifndef OPAC_BENCH_BENCH_UTIL_HH
#define OPAC_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "coproc/coprocessor.hh"
#include "fault/fault.hh"
#include "kernels/kernel_set.hh"
#include "sim/sweep.hh"
#include "snap/snapshot.hh"
#include "trace/aggregate.hh"
#include "trace/json.hh"
#include "trace/sinks.hh"
#include "trace/trace.hh"

namespace opac::bench
{

/**
 * Process-wide fault-injection plan, set by initSimFlags from
 * --faults=<spec> (docs/RESILIENCE.md). Empty by default, so benches
 * run fault-free and byte-identical to a build without the subsystem.
 */
inline fault::FaultSpec &
faultDefault()
{
    static fault::FaultSpec spec;
    return spec;
}

/** Process-wide FIFO parity mode, set by initSimFlags from --parity=. */
inline fault::ParityMode &
parityDefault()
{
    static fault::ParityMode mode = fault::ParityMode::Off;
    return mode;
}

/**
 * Process-wide engine mode, set by initSimFlags from --engine=. A
 * mutable global (rather than plumbing a flag through every table
 * function) because both modes are bit-identical in simulated cycles,
 * statistics and trace output (docs/PERFORMANCE.md): spin is only a
 * debugging aid.
 */
inline sim::EngineMode &
engineDefault()
{
    static sim::EngineMode mode = sim::EngineMode::Skip;
    return mode;
}

/**
 * Process-wide default for CoprocConfig::fastTier, set by initSimFlags
 * from --fast-tier=on|off. On by default: superop bursts are
 * byte-identical to the per-cycle interpreter in every engine mode, so
 * off is only a debugging / A-B measurement aid.
 */
inline bool &
fastTierDefault()
{
    static bool on = true;
    return on;
}

/**
 * Parse the simulation-wide bench flags:
 *   --jobs N         worker threads for the parameter sweep
 *                    (default: hardware concurrency)
 *   --faults=SPEC    fault-injection plan for every system the bench
 *                    builds (grammar in docs/RESILIENCE.md)
 *   --parity=MODE    off | detect | correct FIFO word protection
 *   --engine=MODE    spin | skip scheduler (bit-identical; spin
 *                    ticks every cycle, see docs/PERFORMANCE.md)
 *   --fast-tier=X    on | off superop fast tier (bit-identical;
 *                    off forces the per-cycle interpreter)
 * Returns the job count for sim::sweep.
 */
inline unsigned
initSimFlags(int argc, char **argv);

/** Build a P-cell coprocessor in timing-only mode. */
inline copro::CoprocConfig
timingConfig(unsigned cells, std::size_t tf, unsigned tau,
             std::size_t memory_words = std::size_t(1) << 23)
{
    copro::CoprocConfig cfg;
    cfg.cells = cells;
    cfg.cell.tf = tf;
    cfg.cell.interfaceDepth = std::max<std::size_t>(tf, 2048);
    cfg.cell.fp = cell::FpKind::Token;
    cfg.host.tau = tau;
    cfg.memoryWords = memory_words;
    cfg.watchdogCycles = 2000000;
    cfg.engineMode = engineDefault();
    cfg.faults = faultDefault();
    cfg.cell.parity = parityDefault();
    cfg.fastTier = fastTierDefault();
    return cfg;
}

/** Monotonic wall-clock seconds since an arbitrary origin. */
inline double
wallSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Simulated cycles per wall-clock second — the simulator-throughput
 * metric recorded as "sim_rate" in BENCH_*.json (informational:
 * bench_diff reports it but never gates on it).
 */
inline double
simRate(Cycle cycles, double wall_seconds)
{
    return wall_seconds > 0.0 ? double(cycles) / wall_seconds : 0.0;
}

/** Format a multiply-adds-per-cycle value the way the paper prints. */
inline std::string
maPerCycle(double mas, Cycle cycles)
{
    return strfmt("%.3f", mas / double(cycles));
}

/** Simple "--flag value" argument scan. */
inline long
argValue(int argc, char **argv, const std::string &flag, long fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag)
            return std::atol(argv[i + 1]);
    }
    return fallback;
}

/** True if "--flag" is present. */
inline bool
argFlag(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i < argc; ++i) {
        if (argv[i] == flag)
            return true;
    }
    return false;
}

/** Value of "--flag=text" (or "--flag text"); empty when absent. */
inline std::string
argText(int argc, char **argv, const std::string &flag)
{
    const std::string prefix = flag + "=";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
        if (arg == flag && i + 1 < argc)
            return argv[i + 1];
    }
    return "";
}

inline unsigned
initSimFlags(int argc, char **argv)
{
    try {
        std::string faults = argText(argc, argv, "--faults");
        if (!faults.empty())
            faultDefault() = fault::parseFaultSpec(faults);
        std::string parity = argText(argc, argv, "--parity");
        if (!parity.empty())
            parityDefault() = fault::parseParityMode(parity);
    } catch (const Error &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        std::exit(2);
    }
    std::string engine = argText(argc, argv, "--engine");
    if (!engine.empty()
        && !sim::parseEngineMode(engine, engineDefault())) {
        std::fprintf(stderr,
                     "%s: bad --engine value '%s' (want spin or "
                     "skip)\n", argv[0], engine.c_str());
        std::exit(2);
    }
    std::string fast = argText(argc, argv, "--fast-tier");
    if (!fast.empty()) {
        if (fast == "on") {
            fastTierDefault() = true;
        } else if (fast == "off") {
            fastTierDefault() = false;
        } else {
            std::fprintf(stderr,
                         "%s: bad --fast-tier value '%s' (want on or "
                         "off)\n", argv[0], fast.c_str());
            std::exit(2);
        }
    }
    long jobs = argValue(argc, argv, "--jobs",
                         long(sim::defaultJobs()));
    std::string eq = argText(argc, argv, "--jobs");
    if (!eq.empty())
        jobs = std::atol(eq.c_str());
    return jobs > 0 ? unsigned(jobs) : 1;
}

/**
 * Sweep a batch of double-valued cases (the ablation benches' common
 * shape) across @p jobs workers, preserving order.
 */
inline std::vector<double>
sweepValues(const std::vector<std::function<double()>> &tasks,
            unsigned jobs)
{
    return sim::sweep<double>(tasks, jobs);
}

/**
 * One traced run within a bench binary, driven by `--trace=<file>`.
 * Attach to the representative system before running it; on
 * finish() the trace file is written (Chrome trace-event JSON, or the
 * CSV archival form when the path ends in ".csv" — the input format of
 * tools/trace_report) and the in-memory aggregate report is printed,
 * optionally against an analytic occupancy prediction.
 */
class TraceSession
{
  public:
    TraceSession(int argc, char **argv)
        : path(argText(argc, argv, "--trace"))
    {}

    /** True when the user asked for a trace. */
    bool wanted() const { return !path.empty(); }

    /** True once a system has been claimed as the traced run. */
    bool attached() const { return tracer != nullptr; }

    /** Claim @p sys as the traced run (first caller wins). */
    void
    attach(copro::Coprocessor &sys)
    {
        opac_assert(wanted() && !attached(),
                    "attach on an unwanted or already-claimed session");
        tracer = std::make_unique<trace::Tracer>();
        snap::ensureParentDir(path);
        file.open(path, std::ios::out | std::ios::trunc);
        if (!file) {
            opac_fatal("cannot open trace file '%s'", path.c_str());
        }
        bool csv = path.size() >= 4
                   && path.compare(path.size() - 4, 4, ".csv") == 0;
        if (csv)
            fileSink = std::make_unique<trace::CsvSink>(file);
        else
            fileSink = std::make_unique<trace::ChromeTraceSink>(file);
        tracer->addSink(fileSink.get());
        tracer->addSink(&aggregate);
        sys.attachTracer(tracer.get());
    }

    /**
     * Close the trace and print the aggregate report. When
     * @p predicted_ma is non-negative, also print the measured
     * multiply-add occupancy against that analytic prediction.
     */
    void
    finish(Cycle end, double predicted_ma = -1.0)
    {
        if (!attached())
            return;
        tracer->finish(end);
        file.close();
        std::printf("\n=== trace: %llu events -> %s ===\n\n",
                    (unsigned long long)tracer->eventCount(),
                    path.c_str());
        std::printf("%s", aggregate.report().c_str());
        if (predicted_ma >= 0.0) {
            double measured = aggregate.totalMaPerCycle();
            std::printf("measured MA occupancy %.4f vs analytic "
                        "prediction %.4f (%+.2f%%)\n",
                        measured, predicted_ma,
                        predicted_ma != 0.0
                            ? 100.0 * (measured - predicted_ma)
                                  / predicted_ma
                            : 0.0);
        }
    }

    const trace::Aggregate &agg() const { return aggregate; }

  private:
    std::string path;
    std::unique_ptr<trace::Tracer> tracer;
    std::unique_ptr<trace::Sink> fileSink;
    trace::Aggregate aggregate;
    std::ofstream file;
};

/**
 * Current commit, abbreviated. The OPAC_GIT_SHA environment variable
 * wins (CI sets it from the checkout), then `git rev-parse`, then
 * "unknown" (e.g. a bench run from an installed tree).
 */
inline std::string
gitSha()
{
    if (const char *env = std::getenv("OPAC_GIT_SHA"); env && *env)
        return env;
    std::string sha;
    if (FILE *p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64];
        if (std::fgets(buf, sizeof(buf), p))
            sha = buf;
        ::pclose(p);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

/** The current wall-clock time as ISO-8601 UTC ("...Z"). */
inline std::string
iso8601Now()
{
    std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/** CMAKE_BUILD_TYPE baked in by bench/CMakeLists.txt. */
inline std::string
buildType()
{
#ifdef OPAC_BUILD_TYPE
    return OPAC_BUILD_TYPE;
#else
    return "unknown";
#endif
}

/**
 * Collects benchmark results and writes them as `BENCH_<name>.json`:
 * an object {bench, git_sha, timestamp, build_type, config, results}
 * whose "results" array holds {name, cycles, flops_per_cycle,
 * efficiency, ...extra} records — the input format of tools/bench_diff
 * and the committed baselines under bench/baselines/. A flop here is an
 * FP operation: one multiply-add counts as two, matching peak 2P
 * flops/cycle for a P-cell coprocessor.
 */
class BenchJsonWriter
{
  public:
    explicit BenchJsonWriter(std::string bench_name)
        : benchName(std::move(bench_name))
    {}

    ~BenchJsonWriter() { write(); }

    BenchJsonWriter(const BenchJsonWriter &) = delete;
    BenchJsonWriter &operator=(const BenchJsonWriter &) = delete;

    /** Record a simulator-configuration key (tau, cells, Tf, ...). */
    void
    config(const std::string &key, const std::string &value)
    {
        configs.push_back(strfmt("\"%s\": \"%s\"",
                                 trace::json::escape(key).c_str(),
                                 trace::json::escape(value).c_str()));
    }

    void config(const std::string &key, long value)
    {
        configs.push_back(strfmt("\"%s\": %ld",
                                 trace::json::escape(key).c_str(),
                                 value));
    }

    /**
     * Record one case. @p extra holds additional named measurements
     * (e.g. {"ma_per_cycle", 0.496}) appended to the record.
     */
    void
    record(const std::string &name, Cycle cycles, double flops_per_cycle,
           double efficiency,
           const std::vector<std::pair<std::string, double>> &extra = {})
    {
        std::string rec = strfmt(
            "    {\"name\": \"%s\", \"cycles\": %llu, "
            "\"flops_per_cycle\": %.6f, \"efficiency\": %.6f",
            trace::json::escape(name).c_str(),
            (unsigned long long)cycles, flops_per_cycle, efficiency);
        for (const auto &[k, v] : extra) {
            rec += strfmt(", \"%s\": %.6f",
                          trace::json::escape(k).c_str(), v);
        }
        rec += "}";
        records.push_back(std::move(rec));
    }

    /** Write BENCH_<name>.json now (also runs at destruction). */
    void
    write()
    {
        if (written || records.empty())
            return;
        written = true;
        std::string path = "BENCH_" + benchName + ".json";
        std::ofstream out(path, std::ios::out | std::ios::trunc);
        if (!out) {
            warn(strfmt("cannot write %s", path.c_str()));
            return;
        }
        out << "{\n";
        out << "  \"bench\": \""
            << trace::json::escape(benchName) << "\",\n";
        out << "  \"git_sha\": \""
            << trace::json::escape(gitSha()) << "\",\n";
        out << "  \"timestamp\": \"" << iso8601Now() << "\",\n";
        out << "  \"build_type\": \""
            << trace::json::escape(buildType()) << "\",\n";
        out << "  \"config\": {";
        for (std::size_t i = 0; i < configs.size(); ++i)
            out << (i ? ", " : "") << configs[i];
        out << "},\n";
        out << "  \"results\": [\n";
        for (std::size_t i = 0; i < records.size(); ++i)
            out << records[i] << (i + 1 < records.size() ? ",\n" : "\n");
        out << "  ]\n}\n";
    }

  private:
    std::string benchName;
    std::vector<std::string> configs;
    std::vector<std::string> records;
    bool written = false;
};

/**
 * One stats-instrumented run within a bench binary, driven by
 * `--stats=<file>` and `--sample-interval=N` (default 1000 cycles).
 * Ask for the interval when building the representative system's
 * config, then claim that system; on finish() the full registry plus
 * the sampled time series is written as JSON (Coprocessor::statsJson).
 */
class StatsSession
{
  public:
    StatsSession(int argc, char **argv)
        : path(argText(argc, argv, "--stats"))
    {
        std::string iv = argText(argc, argv, "--sample-interval");
        interval = iv.empty() ? 1000 : Cycle(std::atol(iv.c_str()));
        opac_assert(interval > 0, "bad --sample-interval value '%s'",
                    iv.c_str());
    }

    /** True when the user asked for a stats dump. */
    bool wanted() const { return !path.empty(); }

    /** True once a system has been claimed as the instrumented run. */
    bool attached() const { return sys != nullptr; }

    /** Sampling interval for the instrumented system's config. */
    Cycle sampleInterval() const { return wanted() ? interval : 0; }

    /** Claim @p s as the instrumented run (first caller wins). */
    void
    attach(copro::Coprocessor &s)
    {
        opac_assert(wanted() && !attached(),
                    "attach on an unwanted or already-claimed session");
        sys = &s;
    }

    /** Write the stats JSON and print the human-readable registry. */
    void
    finish()
    {
        if (!attached())
            return;
        snap::ensureParentDir(path);
        std::ofstream out(path, std::ios::out | std::ios::trunc);
        if (!out) {
            opac_fatal("cannot open stats file '%s'", path.c_str());
        }
        out << sys->statsJson() << "\n";
        std::printf("\n=== stats -> %s ===\n\n%s",
                    path.c_str(), sys->statsReport().c_str());
    }

  private:
    std::string path;
    Cycle interval;
    copro::Coprocessor *sys = nullptr;
};

/**
 * Checkpoint/resume flags for a bench's representative run
 * (docs/RESILIENCE.md, "Checkpoint & replay"):
 *
 *   --snapshot-at=CYCLE   pause the claimed system once its clock
 *                         reaches CYCLE and write a snapshot file
 *                         before running on to completion
 *   --snapshot-file=PATH  where to write it (default opac.snap;
 *                         missing directories are created)
 *   --resume-from=FILE    restore the claimed system from FILE before
 *                         running it
 *
 * Both directions preserve byte identity: a run that snapshots at N
 * and a second process that resumes from the file report exactly the
 * cycle counts, stats and sampler series of the uninterrupted run.
 */
class SnapshotSession
{
  public:
    SnapshotSession(int argc, char **argv)
        : file(argText(argc, argv, "--snapshot-file")),
          resume(argText(argc, argv, "--resume-from"))
    {
        std::string at = argText(argc, argv, "--snapshot-at");
        if (!at.empty()) {
            snapshotAt = Cycle(std::atoll(at.c_str()));
            opac_assert(snapshotAt > 0, "bad --snapshot-at value '%s'",
                        at.c_str());
        }
        if (snapshotAt != 0 && file.empty())
            file = "opac.snap";
    }

    /** True when any checkpoint/resume flag was given. */
    bool wanted() const { return snapshotAt != 0 || !resume.empty(); }

    /** True once a system has been claimed. */
    bool attached() const { return sys != nullptr; }

    /**
     * Claim @p s (freshly constructed, kernels installed, nothing run)
     * and restore the --resume-from file into it if one was given.
     */
    void
    attach(copro::Coprocessor &s)
    {
        opac_assert(wanted() && !attached(),
                    "attach on an unwanted or already-claimed session");
        sys = &s;
        if (!resume.empty())
            sys->loadSnapshot(resume);
    }

    /**
     * Run the claimed system to completion, pausing at --snapshot-at
     * (if given, and not already passed by a resume) to write the
     * checkpoint. Returns the cycles simulated by this call.
     */
    Cycle
    runClaimed(Cycle max_cycles = 0)
    {
        opac_assert(attached(), "runClaimed without a claimed system");
        if (snapshotAt != 0 && snapshotAt > sys->engine().now()) {
            sys->runUntil(snapshotAt, max_cycles);
            sys->saveSnapshot(file);
            std::printf("snapshot at cycle %llu -> %s\n",
                        (unsigned long long)sys->engine().now(),
                        file.c_str());
        }
        sys->run(max_cycles);
        // Report the absolute end cycle, not the cycles run in this
        // process: a --resume-from run starts mid-stream, and its
        // reported cycle count must be byte-identical to the
        // uninterrupted run's.
        return sys->engine().now();
    }

  private:
    std::string file;
    std::string resume;
    Cycle snapshotAt = 0;
    copro::Coprocessor *sys = nullptr;
};

} // namespace opac::bench

#endif // OPAC_BENCH_BENCH_UTIL_HH
