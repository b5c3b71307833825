/**
 * @file
 * serve_durable: an open-loop stream of small mixed jobs served by one
 * serve::Server with journal and per-shard checkpoints on, at three
 * fixed arrival rates (below, near and above pool capacity), ending in
 * a simulated crash at the last delivery and a resume from the
 * checkpoint directory.
 *
 * The crash lands at the last delivery, so the resumed server restores
 * every shard checkpoint and replays the whole journal but runs no job
 * on a restored shard: microcode restored from a checkpoint decodes
 * every `add rX +/- rY` as `add r0 +/- rY` (isa::encode does not store
 * the addA register), so FFT jobs executed after a restore fail the
 * oracle. Move the crash back into the phase once that is fixed.
 *
 * Arrivals are Poisson in virtual time, drawn up front from the seed,
 * so the generator can never run late. Every latency here is virtual
 * (simulated cycles) and therefore identical on every run of a seed;
 * only the host-time metrics vary.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>

#include "common/error.hh"
#include "common/random.hh"
#include "common/logging.hh"
#include "device.hh"
#include "reference.hh"
#include "serve/server.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace opac;
using namespace opac::serve;

namespace
{

/** The serve_load mix: three tenants, 1 in 8 high priority. */
JobRequest
drawRequest(Rng &rng)
{
    JobRequest r;
    r.seed = rng.next() | 1;
    r.tenant = std::uint32_t(rng.range(0, 2));
    r.priority = rng.uniform() < 0.125f ? 4u : 0u;
    switch (rng.range(0, 3)) {
      case 0:
        r.kind = KernelKind::Gemm;
        r.m = r.k = r.n = 16;
        break;
      case 1:
        r.kind = KernelKind::Lu;
        r.n = 16;
        break;
      case 2:
        r.kind = KernelKind::Conv2d;
        r.n = 12;
        r.m = 16;
        r.p = r.q = 3;
        break;
      default:
        r.kind = KernelKind::Fft;
        r.n = 64;
        r.batch = 2;
        break;
    }
    return r;
}

/** Poisson arrivals at @p rate jobs per simulated megacycle. */
std::vector<JobRequest>
drawPhase(std::uint64_t seed, double rate, unsigned jobs)
{
    Rng rng(seed);
    std::vector<JobRequest> reqs;
    double t = 0.0;
    for (unsigned i = 0; i < jobs; ++i) {
        t += -std::log(1.0 - double(rng.uniform())) * 1e6 / rate;
        JobRequest r = drawRequest(rng);
        r.arrival = Cycle(t);
        reqs.push_back(r);
    }
    return reqs;
}

/** What the client saw of one delivery. */
struct Seen
{
    unsigned count = 0;
    JobResult result;
};

/** Host time spent in the timed serve calls, summed over a pass. */
struct CallCosts
{
    Cost submit, drain, resume;

    double
    wall() const
    {
        return submit.wall + drain.wall + resume.wall;
    }
};

/** Simulated-time outcome of one phase. */
struct PhaseOut
{
    std::vector<double> latency;   //!< +inf for failed/rejected
    std::vector<double> queueWait; //!< completed jobs
    std::vector<double> service;   //!< completed jobs
    std::vector<double> execWallMs; //!< span wall, dispatch -> verify
    std::uint64_t completed = 0, bad = 0, rejected = 0, failovers = 0;
    double ma = 0, makespan = 0, batches = 0, utilization = 0;
    double checkpointBytes = 0;
    double reexec = 0; //!< jobs executed by the resumed server
    std::vector<std::uint64_t> signature; //!< checksum,finished per ticket
    std::map<std::string, unsigned> wrongByKind; //!< failed the oracle
};

/** Sum every scalar stat of @p g whose name ends with @p suffix. */
double
sumSuffix(const stats::StatGroup &g, const std::string &suffix)
{
    double total = 0;
    g.forEachScalar([&](const std::string &name, double v) {
        if (endsWith(name, suffix))
            total += v;
    });
    return total;
}

/** Set-up-only repetitions run first, to warm up and to give setup_s
 *  a median over more samples than the passes provide. One sample is
 *  the set-up of a whole pass (all three phases), so every sample
 *  measures the same work. */
constexpr unsigned kSetupOnly = 20;

class ServeRun
{
  public:
    ServeRun(const Options &opt, SpanRecorder &rec, unsigned pass)
        : opt_(opt), rec_(rec), pass_(pass)
    {}

    /**
     * Serve one phase on a fresh server. @p crash_after > 0 crashes the
     * server after that many deliveries and resumes a new one from the
     * checkpoint directory.
     */
    PhaseOut
    phase(unsigned idx, double rate, unsigned jobs, unsigned crash_after,
          CallCosts &w, double &setup, Tally &tally, Device *dev)
    {
        const std::string dir = opt_.workDir + "/serve_phase"
                                + std::to_string(idx);
        std::filesystem::remove_all(dir);
        ServeConfig cfg = config(dir);
        const unsigned id = pass_ * 10 + idx;

        Cost tConstruct, tGenerate;
        cfg.crashAfterDeliveries = crash_after;
        auto srv = rec_.time("serve.construct", id, tConstruct,
                             [&] { return std::make_unique<Server>(cfg); });
        auto reqs = rec_.time("serve.generate", id, tGenerate, [&] {
            return drawPhase(subSeed(opt_.seed, 10 + idx), rate, jobs);
        });
        setup += tConstruct.cpu + tGenerate.cpu;

        std::map<std::uint32_t, Seen> before;
        bool crashed = false;
        submitAll(*srv, reqs, before, w, id);
        try {
            rec_.time("serve.drain", id, w.drain, [&] { srv->drain(); });
        } catch (const Error &) {
            crashed = true;
        }
        PhaseOut out;
        std::map<std::uint32_t, Seen> seen;
        if (crash_after) {
            tally.check(crashed);
            // The process restart: drop the wounded server, bring up a
            // fresh one over the same directory and re-submit the
            // identical workload; journaled results are re-delivered,
            // the rest would re-execute from the last shard checkpoints.
            // The resumed server serves no batch, so the scheduler
            // figures come from the crashed one.
            const double makespan = double(srv->makespan());
            const double batches = double(srv->batches());
            const double utilization = srv->utilization();
            srv.reset();
            cfg.crashAfterDeliveries = 0;
            cfg.resume = true;
            srv = rec_.time("snap.resume", id, w.resume, [&] {
                return std::make_unique<Server>(cfg);
            });
            submitAll(*srv, reqs, seen, w, id);
            rec_.time("serve.drain", id, w.drain, [&] { srv->drain(); });
            checkExactlyOnce(before, seen, jobs, tally);
            // Every result was journaled before the crash, so the
            // resumed server must replay them all and execute none.
            collect(*srv, seen, out, tally);
            tally.check(out.reexec == 0);
            out.makespan = makespan;
            out.batches = batches;
            out.utilization = utilization;
        } else {
            tally.check(!crashed);
            collect(*srv, before, out, tally);
        }
        // A resumed shard restores its machine's counters from the
        // checkpoint, so these cover the whole phase.
        for (unsigned i = 0; dev && i < srv->numShards(); ++i)
            dev->add(srv->shard(i).system(),
                     double(srv->shard(i).busyCycles()));
        out.checkpointBytes = directoryBytes(dir, ".snap");
        srv.reset();
        std::filesystem::remove_all(dir);
        return out;
    }

    /** Set up every phase's server and requests, then discard them. */
    double
    setUpOnly()
    {
        const std::string dir = opt_.workDir + "/serve_setup";
        Cost t;
        for (unsigned idx = 0; idx < 3; ++idx) {
            std::filesystem::remove_all(dir);
            auto srv = rec_.time("serve.construct", idx, t, [&] {
                return std::make_unique<Server>(config(dir));
            });
            rec_.time("serve.generate", idx, t, [&] {
                return drawPhase(subSeed(opt_.seed, 10 + idx),
                                 opt_.rates[idx], opt_.jobs[idx]);
            });
        }
        std::filesystem::remove_all(dir);
        return t.cpu;
    }

  private:
    ServeConfig
    config(const std::string &dir) const
    {
        // Three shards is nproc - 1 on a 4-CPU host. The count is fixed,
        // not taken from the host, so the simulated-time metrics are the
        // same on every machine.
        ServeConfig cfg;
        cfg.shards = 3;
        cfg.shard.cells = 2;
        cfg.shard.tf = 512;
        cfg.shard.memoryWords = 1 << 20;
        cfg.shard.fp = cell::FpKind::Native;
        cfg.shard.parity = fault::ParityMode::Correct;
        cfg.shard.engineMode = sim::EngineMode::Skip;
        cfg.shard.fastTier = true;
        cfg.sched.batchMax = 2;
        cfg.checkpointDir = dir;
        cfg.checkpointEvery = 1;
        return cfg;
    }

    void
    submitAll(Server &srv, const std::vector<JobRequest> &reqs,
              std::map<std::uint32_t, Seen> &seen, CallCosts &w,
              unsigned id)
    {
        rec_.time("serve.submit", id, w.submit, [&] {
            for (const JobRequest &r : reqs)
                srv.submit(r, [&seen](const JobResult &res) {
                    Seen &s = seen[res.ticket];
                    ++s.count;
                    s.result = res;
                });
        });
    }

    /**
     * Exactly once across the crash: the resumed server delivers every
     * ticket once, and each ticket the client already had comes back
     * as the same result (a replay from the journal, not a second
     * execution).
     */
    static void
    checkExactlyOnce(const std::map<std::uint32_t, Seen> &before,
                     const std::map<std::uint32_t, Seen> &after,
                     unsigned jobs, Tally &tally)
    {
        bool once = after.size() == jobs;
        for (const auto &[ticket, s] : after)
            once = once && s.count == 1;
        bool same = true;
        for (const auto &[ticket, s] : before) {
            auto it = after.find(ticket);
            same = same && s.count == 1 && it != after.end()
                   && it->second.result.checksum == s.result.checksum
                   && it->second.result.finished == s.result.finished
                   && it->second.result.status == s.result.status;
        }
        tally.check(once);
        tally.check(same);
    }

    void
    collect(const Server &srv, const std::map<std::uint32_t, Seen> &seen,
            PhaseOut &out, Tally &tally) const
    {
        const double inf = std::numeric_limits<double>::infinity();
        for (const auto &[ticket, s] : seen) {
            const JobResult &r = s.result;
            const bool done = r.status == JobStatus::Completed;
            const bool good = done && r.correct;
            tally.check(good);
            out.bad += !good;
            if (done && !r.correct)
                ++out.wrongByKind[srv.spans().at(ticket).kind];
            out.rejected += r.status == JobStatus::Rejected;
            out.failovers += r.failovers;
            out.latency.push_back(done ? double(r.latency()) : inf);
            out.signature.push_back(r.checksum);
            out.signature.push_back(r.finished);
            if (!done)
                continue;
            ++out.completed;
            out.queueWait.push_back(double(r.queueWait()));
            out.service.push_back(double(r.serviceTime()));
        }
        out.ma = sumSuffix(srv.stats(), ".ma_ops");
        out.makespan = double(srv.makespan());
        out.batches = double(srv.batches());
        out.utilization = srv.utilization();
        for (const obs::JobSpan &sp : srv.spans().spans()) {
            double dispatch = -1, verify = -1;
            bool executed = false;
            for (const obs::SpanEdge &e : sp.edges) {
                if (e.phase == obs::Phase::Dispatch)
                    dispatch = e.wallNs;
                else if (e.phase == obs::Phase::Verify)
                    verify = e.wallNs;
                executed = executed || e.phase == obs::Phase::Execute;
            }
            if (dispatch >= 0 && verify >= 0)
                out.execWallMs.push_back((verify - dispatch) * 1e-6);
            out.reexec += executed;
        }
    }

    static double
    directoryBytes(const std::string &dir, const std::string &ext)
    {
        double bytes = 0;
        std::error_code ec;
        for (const auto &f : std::filesystem::directory_iterator(dir, ec))
            if (f.path().extension() == ext)
                bytes += double(f.file_size(ec));
        return bytes;
    }

    const Options &opt_;
    SpanRecorder &rec_;
    unsigned pass_;
};

} // anonymous namespace

Outcome
runServeDurable(const Options &opt, SpanRecorder &rec)
{
    Outcome out;
    // The crash lands at the last delivery of the last phase, so that
    // phase needs a job to deliver.
    if (opt.rates.size() != 3 || opt.jobs.size() != 3 || opt.jobs[2] < 1
        || opt.latencyLimit <= 0) {
        out.tally.check(false);
        out.report.push_back("serve_durable: needs three rates, three "
                             "job counts (the last at least 1) and a "
                             "latency limit");
        return out;
    }
    std::filesystem::create_directories(opt.workDir);

    std::vector<double> setups, jobRate, maRate, jobRateWall, jobRateCpu,
        tracedCpu, plainCpu;
    {
        SpanRecorder quiet(false);
        ServeRun warm(opt, quiet, 0);
        for (unsigned i = 0; i < kSetupOnly; ++i)
            setups.push_back(onReferenceClock(warm.setUpOnly()));
    }
    std::vector<PhaseOut> first;
    CallCosts costs;
    Device dev;
    // A traced run needs a traced and an untraced pass to compare.
    const unsigned minPasses = opt.trace ? 2 : 1;
    const double deadline = nowSeconds() + opt.seconds;
    double lastPass = 0;
    for (unsigned pass = 0;
         pass < minPasses || nowSeconds() + lastPass / 2 < deadline;
         ++pass) {
        const bool traced = opt.trace && pass % 2 == 0;
        SpanRecorder quiet(false);
        SpanRecorder &r = traced ? rec : quiet;
        ServeRun run(opt, r, pass);
        CallCosts w;
        double passSetup = 0;
        std::vector<PhaseOut> phases;
        Cost whole;
        // Elapsed seconds of the timed calls on the reference clock:
        // each phase's share is scaled by kReferenceUnitS over the
        // mean of the reference times taken before and after it.
        double refWall = 0;
        r.time("pass", pass, whole, [&] {
            double before = referenceSeconds();
            for (unsigned i = 0; i < 3; ++i) {
                const double w0 = w.wall();
                phases.push_back(run.phase(
                    i, opt.rates[i], opt.jobs[i],
                    i == 2 ? opt.jobs[i] : 0, w, passSetup,
                    out.tally, pass == 0 ? &dev : nullptr));
                const double after = referenceSeconds();
                refWall += (w.wall() - w0) * kReferenceUnitS * 2.0
                           / (before + after);
                before = after;
            }
        });
        (traced ? tracedCpu : plainCpu).push_back(whole.cpu);
        lastPass = whole.wall;
        // Virtual time is deterministic: every pass must reproduce the
        // first one's deliveries bit for bit.
        if (pass == 0)
            first = phases;
        else
            for (unsigned i = 0; i < 3; ++i)
                out.tally.check(phases[i].signature
                                == first[i].signature);
        if (opt.trace && !traced)
            continue;
        double served = 0, ma = 0;
        for (const PhaseOut &ph : phases) {
            served += double(ph.completed);
            ma += ph.ma;
        }
        // Throughput is over elapsed time: the shards serve in
        // parallel inside drain(), and better overlap between them is
        // a gain this metric must show. The plain wall-second and
        // CPU-second rates are printed beside it; the latter is the
        // per-job cost instead.
        const double cpu = w.submit.cpu + w.drain.cpu + w.resume.cpu;
        jobRate.push_back(served / refWall);
        maRate.push_back(ma / refWall);
        jobRateWall.push_back(served / w.wall());
        jobRateCpu.push_back(served / cpu);
        setups.push_back(onReferenceClock(passSetup));
        costs.submit += w.submit;
        costs.drain += w.drain;
        costs.resume += w.resume;
    }

    const PhaseOut &near = first[1];
    const Percentile p50 = nearestRank(near.latency, 50.0);
    const Percentile p99 = nearestRank(near.latency, 99.0);
    std::vector<RatePhase> rp;
    for (unsigned i = 0; i < 3; ++i)
        rp.push_back({opt.rates[i],
                      nearestRank(first[i].latency, 99.0).value,
                      first[i].bad});
    const double capacity = capacityPick(rp, opt.latencyLimit);

    auto &e = out.endToEnd;
    e["setup_s"] = median(setups);
    e["sim_ma_per_s"] = median(maRate);
    e["jobs_per_s"] = median(jobRate);
    e["ma_per_cycle"] = near.makespan > 0 ? near.ma / near.makespan : 0;
    e["p50_latency_cyc"] = p50.value;
    e["p99_latency_cyc"] = p99.value;
    e["capacity_jobs_per_mcyc"] = capacity;
    e["peak_rss_mb"] = peakRssMb();

    const double passes = double(jobRate.size());
    auto &l = out.perLayer;
    // The shards run their machines inside drain() on worker threads,
    // out of the benchmark's reach: device counts only, no sim time.
    dev.report(l, 0.0, near.ma + first[0].ma + first[2].ma);
    l["serve.submit_s"] = costs.submit.wall / passes;
    l["serve.drain_s"] = costs.drain.wall / passes;
    l["serve.queue_wait_p99_cyc"] = nearestRank(near.queueWait, 99).value;
    l["serve.service_p50_cyc"] = nearestRank(near.service, 50).value;
    double batches = 0, completed = 0, rejected = 0, failovers = 0,
           ckpt = 0;
    for (const PhaseOut &ph : first) {
        batches += ph.batches;
        completed += double(ph.completed);
        rejected += double(ph.rejected);
        failovers += double(ph.failovers);
        ckpt += ph.checkpointBytes;
    }
    l["serve.batches"] = batches;
    l["serve.batch_jobs_mean"] = batches > 0 ? completed / batches : 0;
    l["serve.shard_util"] = near.utilization;
    l["serve.execute_wall_ms_p50"] = median(near.execWallMs);
    l["serve.rejected"] = rejected;
    l["serve.failovers"] = failovers;
    l["snap.checkpoint_bytes"] = ckpt;
    l["snap.resume_s"] = costs.resume.wall / passes;
    if (opt.trace)
        l["trace.overhead_frac"] =
            median(tracedCpu) / median(plainCpu) - 1.0;

    const char *names[3] = {"below", "near", "above"};
    for (unsigned i = 0; i < 3; ++i) {
        const PhaseOut &ph = first[i];
        out.report.push_back(strfmt(
            "phase %s: %.1f jobs/Mcyc, %zu jobs, %llu bad, p99 %.0f cyc "
            "(%s the limit), shard utilization %.3f",
            names[i], opt.rates[i], ph.latency.size(),
            (unsigned long long)ph.bad, rp[i].p99,
            rp[i].p99 <= opt.latencyLimit ? "meets" : "misses",
            ph.utilization));
        out.report.push_back("  " + describeTiming("latency", ph.latency,
                                                   "cyc"));
    }
    for (unsigned i = 0; i < 3; ++i)
        for (const auto &[kind, n] : first[i].wrongByKind)
            out.report.push_back(strfmt(
                "check failed: phase %s: %u %s job(s) completed with "
                "output that does not match the blasref oracle",
                names[i], n, kind.c_str()));
    out.report.push_back(strfmt(
        "capacity_jobs_per_mcyc: %.1f (p99 limit %.0f cycles)", capacity,
        opt.latencyLimit));
    out.report.push_back(describeTiming("setup_s", setups, "ref s"));
    out.report.push_back(describeTiming("jobs_per_s", jobRate, "1/ref s"));
    out.report.push_back(
        describeTiming("jobs per wall second", jobRateWall, "1/s"));
    out.report.push_back(
        describeTiming("jobs per CPU second", jobRateCpu, "1/CPU s"));
    return out;
}

} // namespace perfbench
