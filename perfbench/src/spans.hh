/**
 * @file
 * Host-time spans recorded by the benchmark around its own calls into
 * each layer's public API. Every call is timed (the end-to-end metrics
 * need the durations either way); only a traced run also keeps a span
 * — name, start, end, parent, the workload-local id of the job or
 * repetition it belongs to, and the public counters read at that
 * boundary. Spans live in memory and are written out once, at exit,
 * as a Chrome trace-event file.
 *
 * Each call is timed twice: on the wall clock and in CPU seconds of
 * this process (all threads). Single-threaded work is measured in CPU
 * seconds: on a shared virtual machine the wall clock also counts time
 * the hypervisor gives to other guests. Work that runs on several
 * threads at once (the serve shards) is measured on the wall clock,
 * where their overlap shows.
 */

#ifndef OPAC_PERFBENCH_SPANS_HH
#define OPAC_PERFBENCH_SPANS_HH

#include <time.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Monotonic seconds since an arbitrary origin. */
inline double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** CPU seconds consumed by every thread of this process so far. */
inline double
cpuSeconds()
{
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return double(t.tv_sec) + double(t.tv_nsec) * 1e-9;
}

/** What a timed call cost the host. */
struct Cost
{
    double wall = 0.0; //!< wall-clock seconds
    double cpu = 0.0;  //!< process CPU seconds, all threads

    Cost &
    operator+=(const Cost &o)
    {
        wall += o.wall;
        cpu += o.cpu;
        return *this;
    }
};

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;  //!< wall clock
        double end = 0.0;
        double cpu = 0.0;    //!< process CPU seconds inside the span
        int parent = -1;      //!< index of the enclosing span, -1: root
        unsigned id = 0;      //!< repetition / job id within a workload
        std::vector<std::pair<std::string, double>> counters;
    };

    explicit SpanRecorder(bool on) : on_(on) {}

    bool on() const { return on_; }

    /**
     * Run @p fn, add what it cost to @p acc and, when tracing, record
     * it as a span named @p name under the innermost open span.
     * Returns whatever @p fn returns.
     */
    template <class F>
    decltype(auto)
    time(const char *name, unsigned id, Cost &acc, F &&fn)
    {
        Open open(*this, name, id, acc);
        return fn();
    }

    /** Attach a counter read at the boundary of the last closed span. */
    void
    counter(const std::string &name, double value)
    {
        if (on_ && !spans_.empty())
            spans_[lastClosed_].counters.emplace_back(name, value);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write the spans as Chrome trace events (microseconds from the
     * first span). Returns false when the file cannot be written.
     */
    bool
    write(const std::string &path, const std::string &workload) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
        std::fprintf(f, "{\"workload\": \"%s\", \"traceEvents\": [",
                     workload.c_str());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"span\": %zu, "
                         "\"parent\": %d, \"id\": %u, \"cpu_s\": %.9f",
                         i ? "," : "", s.name.c_str(),
                         (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                         i, s.parent, s.id, s.cpu);
            for (const auto &[k, v] : s.counters)
                std::fprintf(f, ", \"%s\": %.17g", k.c_str(), v);
            std::fprintf(f, "}}");
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    /** One timed call; a span is kept only when tracing. */
    class Open
    {
      public:
        Open(SpanRecorder &rec, const char *name, unsigned id, Cost &acc)
            : rec_(rec), acc_(acc)
        {
            if (rec_.on_) {
                index_ = int(rec_.spans_.size());
                rec_.spans_.push_back(
                    Span{name, 0.0, 0.0, 0.0, rec_.top_, id, {}});
                rec_.top_ = index_;
            }
            start_ = nowSeconds();
            cpuStart_ = cpuSeconds();
        }

        ~Open()
        {
            const double cpu = cpuSeconds() - cpuStart_;
            const double end = nowSeconds();
            acc_ += Cost{end - start_, cpu};
            if (index_ >= 0) {
                Span &s = rec_.spans_[std::size_t(index_)];
                s.start = start_;
                s.end = end;
                s.cpu = cpu;
                rec_.top_ = s.parent;
                rec_.lastClosed_ = std::size_t(index_);
            }
        }

        Open(const Open &) = delete;
        Open &operator=(const Open &) = delete;

      private:
        SpanRecorder &rec_;
        Cost &acc_;
        double start_ = 0.0;
        double cpuStart_ = 0.0;
        int index_ = -1;
    };

    bool on_;
    std::vector<Span> spans_;
    int top_ = -1;
    std::size_t lastClosed_ = 0;
};

} // namespace perfbench

#endif // OPAC_PERFBENCH_SPANS_HH
