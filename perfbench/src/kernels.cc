/**
 * @file
 * The two kernel workloads: gemm_stream (table 6.1's compute-bound
 * corner, bit-accurate softfloat) and conv_hostbound (table 6.2's
 * host-bandwidth-bound corner, timing-only FP). Each repetition builds
 * a fresh machine from the same seeded inputs, plans, runs and checks
 * it; repetitions continue until the run's time is spent.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "blasref/blas3.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "coproc/coprocessor.hh"
#include "device.hh"
#include "kernels/kernel_set.hh"
#include "planner/linalg_plan.hh"
#include "planner/signal_plan.hh"
#include "reference.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace opac;

namespace
{

/** One kernel workload: machine shape, inputs, plan and checks. */
struct KernelCase
{
    const char *name;
    copro::CoprocConfig cfg;
    double usefulMa = 0;
    /** Store the seeded inputs into the machine's memory. */
    std::function<void(copro::Coprocessor &)> store;
    /** Emit the host program; returns the host ops emitted. */
    std::function<std::size_t(copro::Coprocessor &)> plan;
    /** Correctness checks after run(); returns false on any failure. */
    std::function<bool(copro::Coprocessor &, Tally &, Cost &verify,
                       SpanRecorder &, unsigned rep)>
        verify;
};

/** The benches' timing configuration: engine skip, fast tier on. */
copro::CoprocConfig
machineConfig(unsigned cells, std::size_t tf, unsigned tau,
              cell::FpKind fp)
{
    copro::CoprocConfig cfg;
    cfg.cells = cells;
    cfg.cell.tf = tf;
    cfg.cell.interfaceDepth = std::max<std::size_t>(tf, 2048);
    cfg.cell.fp = fp;
    cfg.host.tau = tau;
    cfg.memoryWords = std::size_t(1) << 23;
    cfg.watchdogCycles = 2000000;
    cfg.engineMode = sim::EngineMode::Skip;
    cfg.fastTier = true;
    return cfg;
}

/** A machine set up and ready to run, with what each step cost. */
struct Built
{
    std::unique_ptr<copro::Coprocessor> sys;
    Cost build, install, store, plan;
    std::size_t hostOps = 0;

    /** CPU seconds of the whole set-up. */
    double
    cpu() const
    {
        return build.cpu + install.cpu + store.cpu + plan.cpu;
    }
};

/** construct -> install kernels -> store inputs -> plan and commit. */
Built
setUp(const KernelCase &kc, SpanRecorder &r, unsigned id)
{
    Built b;
    b.sys = r.time("coproc.build", id, b.build, [&] {
        return std::make_unique<copro::Coprocessor>(kc.cfg);
    });
    r.time("kernels.install", id, b.install,
           [&] { kernels::installStandardKernels(*b.sys); });
    r.time("inputs.store", id, b.store, [&] { kc.store(*b.sys); });
    b.hostOps = r.time("planner.plan", id, b.plan,
                       [&] { return kc.plan(*b.sys); });
    r.counter("planner.host_ops", double(b.hostOps));
    return b;
}

/** Set-up-only repetitions run first, to warm up and to give setup_s
 *  a median over more samples than the long runs provide. */
constexpr unsigned kSetupOnly = 30;

/**
 * Simulated cycles per timed slice, about a tenth of a second of host
 * time: short enough that the reference unit run after a slice sees
 * the same host conditions as the slice did.
 */
constexpr Cycle kSliceCycles = 250000;

/** Host speed over one repetition's full slices. */
struct SliceRates
{
    std::vector<double> cpuRates; //!< cycles per CPU second, per slice
    double cycles = 0;            //!< simulated in full slices
    double refSeconds = 0;        //!< their CPU time on the reference clock
    Cost units;                   //!< spent in the reference units
};

/**
 * Run @p sys to completion in kSliceCycles slices of
 * Coprocessor::runUntil (the engine loop of run(), stopping at the
 * slice boundary; simulated results are bit-identical). After each
 * full slice one reference unit runs, and the slice's CPU seconds are
 * scaled by kReferenceUnitS / (that unit's CPU seconds). The last,
 * partial slice is left out of @p out. Returns the cycles simulated;
 * the caller takes @p out.units off the time it measured around this.
 */
Cycle
runSliced(copro::Coprocessor &sys, SliceRates &out)
{
    Cycle total = 0;
    for (;;) {
        const double c0 = cpuSeconds();
        const Cycle n = sys.runUntil(sys.engine().now() + kSliceCycles);
        const double cpu = cpuSeconds() - c0;
        total += n;
        if (n < kSliceCycles)
            return total;
        out.cpuRates.push_back(double(n) / cpu);
        out.cycles += double(n);
        const Cost unit = referenceUnit();
        out.refSeconds += cpu * kReferenceUnitS / unit.cpu;
        out.units += unit;
    }
}

/**
 * Repeat set-up -> run -> verify until @p opt.seconds have passed (at
 * least three repetitions, so repeat determinism is checked), then
 * fold the samples into metrics.
 */
Outcome
runKernel(const KernelCase &kc, const Options &opt, SpanRecorder &rec)
{
    Outcome out;
    SpanRecorder quiet(false);
    std::vector<double> setupS, runS, runWall, buildS, installS, planS,
        verifyS, tracedCpu, plainCpu, cyclesPerS, refRates;
    for (unsigned i = 0; i < kSetupOnly; ++i)
        setupS.push_back(onReferenceClock(setUp(kc, quiet, i).cpu()));

    double hostOps = 0, cycles0 = 0;
    Device dev;
    // Stop once less than half a repetition's time is left, so a run
    // overshoots --seconds by at most about half a repetition.
    const double deadline = nowSeconds() + opt.seconds;
    double lastRep = 0;
    for (unsigned rep = 0; rep < 3 || nowSeconds() + lastRep / 2 < deadline;
         ++rep) {
        // A traced run alternates traced and untraced repetitions so
        // trace.overhead_frac compares like with like.
        const bool traced = opt.trace && rep % 2 == 0;
        SpanRecorder &r = traced ? rec : quiet;
        Cost whole, tRun, tVerify;
        Cycle cycles = 0;
        bool ok = true;
        Built b;
        r.time("rep", rep, whole, [&] {
            b = setUp(kc, r, rep);
            SliceRates sr;
            cycles = r.time("sim.run", rep, tRun,
                            [&] { return runSliced(*b.sys, sr); });
            tRun.wall -= sr.units.wall;
            tRun.cpu -= sr.units.cpu;
            if ((!opt.trace || traced) && sr.refSeconds > 0) {
                cyclesPerS.insert(cyclesPerS.end(), sr.cpuRates.begin(),
                                  sr.cpuRates.end());
                refRates.push_back(sr.cycles / sr.refSeconds);
            }
            if (r.on()) {
                Device d;
                d.add(*b.sys, double(cycles));
                r.counter("sim.cycles", d.cycles);
                r.counter("cell.issued", d.issued);
                r.counter("cell.fma", d.fma);
                r.counter("fast_tier.burst_cycles", d.burstCycles);
                r.counter("softfloat.ops", d.softOps);
                r.counter("host.words_sent", d.hostSent);
            }
            ok = kc.verify(*b.sys, out.tally, tVerify, r, rep);
        });
        if (rep == 0) {
            hostOps = double(b.hostOps);
            cycles0 = double(cycles);
            dev.add(*b.sys, cycles0);
        }
        // The simulated length depends only on the machine shape and
        // the plan, never on the seeded data or the host's timing.
        ok = out.tally.check(double(cycles) == cycles0) && ok;
        if (!ok)
            out.report.push_back(strfmt("rep %u: check failed", rep));
        (traced ? tracedCpu : plainCpu).push_back(whole.cpu);
        lastRep = whole.wall;
        setupS.push_back(onReferenceClock(b.cpu()));
        if (opt.trace && !traced)
            continue;
        runS.push_back(tRun.cpu);
        runWall.push_back(tRun.wall);
        buildS.push_back(b.build.cpu);
        installS.push_back(b.install.cpu);
        planS.push_back(b.plan.cpu);
        verifyS.push_back(tVerify.cpu);
    }

    // Host speed as the median over repetitions of simulated cycles
    // per reference second, scaled to whole jobs: every repetition
    // simulates the same cycles and useful multiply-adds.
    const double rate = median(refRates);
    auto &e = out.endToEnd;
    e["setup_s"] = median(setupS);
    e["sim_ma_per_s"] = rate * kc.usefulMa / cycles0;
    e["jobs_per_s"] = rate / cycles0;
    e["ma_per_cycle"] = kc.usefulMa / cycles0;
    // A kernel workload is one client running identical jobs back to
    // back: every job's latency is the run's simulated length.
    e["p50_latency_cyc"] = cycles0;
    e["p99_latency_cyc"] = cycles0;
    e["capacity_jobs_per_mcyc"] = 1e6 / cycles0;
    e["peak_rss_mb"] = peakRssMb();

    auto &l = out.perLayer;
    l["coproc.build_s"] = median(buildS);
    l["kernels.install_s"] = median(installS);
    l["planner.plan_s"] = median(planS);
    l["planner.host_ops"] = hostOps;
    dev.report(l, median(runS), kc.usefulMa);
    l["sim.ns_per_cycle"] = 1e9 / rate;
    l["blasref.verify_s"] = median(verifyS);
    if (opt.trace)
        l["trace.overhead_frac"] =
            median(tracedCpu) / median(plainCpu) - 1.0;

    out.report.push_back(strfmt(
        "%s: %zu timed repetitions, %.0f useful MA and %.0f cycles each",
        kc.name, runS.size(), kc.usefulMa, cycles0));
    out.report.push_back(describeTiming("setup_s", setupS, "ref s"));
    out.report.push_back(describeTiming("sim.run_s", runS, "CPU s"));
    out.report.push_back(describeTiming("sim.run wall", runWall, "s"));
    out.report.push_back(describeTiming("slice rate", cyclesPerS,
                                        "cycles/CPU s"));
    out.report.push_back(describeTiming("repetition rate", refRates,
                                        "cycles/ref s"));
    return out;
}

} // anonymous namespace

Outcome
runGemmStream(const Options &opt, SpanRecorder &rec)
{
    // P=4, Tf=2048 gives a 90x90 maximum tile; C spans 2x2 of them.
    const unsigned p = 4;
    const std::size_t tf = 2048, n = 180, k = 300;
    const double tol = 1e-5;

    blasref::Matrix a(n, k), b(k, n), c0(n, n);
    Rng rng(subSeed(opt.seed, 1));
    a.randomize(rng);
    b.randomize(rng);
    c0.randomize(rng);
    planner::MatRef cr, ar, br;

    KernelCase kc;
    kc.name = "gemm_stream";
    kc.cfg = machineConfig(p, tf, 2, cell::FpKind::Soft);
    kc.usefulMa = double(n) * double(n) * double(k);
    kc.store = [&](copro::Coprocessor &sys) {
        cr = planner::allocMat(sys.memory(), n, n);
        ar = planner::allocMat(sys.memory(), n, k);
        br = planner::allocMat(sys.memory(), k, n);
        planner::storeMat(sys.memory(), cr, c0);
        planner::storeMat(sys.memory(), ar, a);
        planner::storeMat(sys.memory(), br, b);
    };
    kc.plan = [&](copro::Coprocessor &sys) {
        planner::LinalgPlanner plan(sys);
        plan.matUpdate(cr, ar, br);
        const std::size_t ops = plan.pending().size();
        plan.commit();
        return ops;
    };
    double worstErr = 0;
    kc.verify = [&](copro::Coprocessor &sys, Tally &t, Cost &verify,
                    SpanRecorder &r, unsigned rep) {
        double err = r.time("blasref.verify", rep, verify, [&] {
            blasref::Matrix want = c0;
            blasref::gemm(want, a, b);
            blasref::Matrix got = planner::loadMat(sys.memory(), cr);
            float scale = 1.0f;
            for (float v : want.raw())
                scale = std::max(scale, std::fabs(v));
            return double(got.maxAbsDiff(want)) / double(scale);
        });
        worstErr = std::max(worstErr, err);
        double fma = 0;
        for (unsigned i = 0; i < sys.numCells(); ++i)
            fma += double(sys.cell(i).stats().counterValue("fma"));
        bool ok = t.check(err <= tol);
        return t.check(fma == double(n) * double(n) * double(k)) && ok;
    };
    Outcome out = runKernel(kc, opt, rec);
    out.report.push_back(strfmt(
        "check: C vs blasref::gemm max relative error %.3g (tolerance "
        "%.0e); cell FMA total must equal N*N*K = %.0f",
        worstErr, tol, kc.usefulMa));
    return out;
}

Outcome
runConvHostbound(const Options &opt, SpanRecorder &rec)
{
    // Table 6.2's configuration with the paper's published number.
    const unsigned cells = 16, p = 5, q = 5;
    const std::size_t tf = 512, n = 1024, m = 1024;

    blasref::Matrix image(n, m), weights(p, q);
    Rng rng(subSeed(opt.seed, 2));
    image.randomize(rng);
    weights.randomize(rng);
    planner::MatRef imageT, wr, outT;
    planner::ConvGeometry geom;

    KernelCase kc;
    kc.name = "conv_hostbound";
    kc.cfg = machineConfig(cells, tf, 4, cell::FpKind::Token);
    kc.usefulMa = double(n) * double(m) * p * q;
    kc.store = [&](copro::Coprocessor &sys) {
        auto &mem = sys.memory();
        // Transposed, padded layout the planner expects: column r holds
        // padded image row r, zero-padded by fresh memory.
        imageT = planner::allocMat(mem, m + q - 1, n + p);
        wr = planner::allocMat(mem, p, q);
        outT = planner::allocMat(mem, m, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < m; ++c)
                mem.storeF(imageT.addrOf(c, r), image.at(r, c));
        planner::storeMat(mem, wr, weights);
    };
    kc.plan = [&](copro::Coprocessor &sys) {
        planner::SignalPlanner plan(sys);
        geom = plan.conv2d(imageT, wr, outT, n, m);
        const std::size_t ops = plan.pending().size();
        plan.commit();
        return ops;
    };
    double planned = 0;
    kc.verify = [&](copro::Coprocessor &sys, Tally &t, Cost &,
                    SpanRecorder &, unsigned) {
        // The geometry's useful count covers n output rows; every block
        // also streams p - 1 warm-up rows whose results land in scratch.
        planned = double(geom.usefulMas) / double(n) * double(n + p - 1);
        double fma = 0;
        for (unsigned i = 0; i < sys.numCells(); ++i)
            fma += double(sys.cell(i).stats().counterValue("fma"));
        return t.check(fma == planned && geom.usefulMas == kc.usefulMa);
    };
    Outcome out = runKernel(kc, opt, rec);
    const double mapc = out.endToEnd["ma_per_cycle"];
    out.report.push_back(strfmt(
        "paper_rel_err: %.17g (measured %.4f useful MA/cycle vs table "
        "6.2's %.3f)",
        paperRelErr(mapc), mapc, kPaperConvMaPerCycle));
    out.report.push_back(strfmt(
        "check: cell FMA total must equal the planned %.0f "
        "(useful %.0f plus warm-up rows); cycles identical across "
        "repetitions",
        planned, kc.usefulMa));
    return out;
}

} // namespace perfbench
