/**
 * @file
 * Tests of the fault-injection and recovery subsystem
 * (docs/RESILIENCE.md): seed-determinism of fault plans, SECDED word
 * protection, per-site parity detect/correct survival, transaction
 * timeout -> retry -> replay over the kernel library, dead-cell
 * degradation with re-planning, and the engine's non-fatal watchdog
 * callback. Spin-vs-skip identity under faults lives in the golden
 * suites (tests/golden.hh, plan Recovery).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "blasref/blas3.hh"
#include "common/error.hh"
#include "common/random.hh"
#include "coproc/coprocessor.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "kernels/kernel_set.hh"
#include "planner/jobs.hh"
#include "planner/linalg_plan.hh"
#include "planner/signal_plan.hh"

#include "occupancy_pin.hh"

using namespace opac;
using namespace opac::planner;
using blasref::Matrix;
using copro::CoprocConfig;
using copro::Coprocessor;

namespace
{

CoprocConfig
makeConfig(unsigned cells, std::size_t tf = 512, unsigned tau = 2)
{
    CoprocConfig cfg;
    cfg.cells = cells;
    cfg.cell.tf = tf;
    cfg.cell.interfaceDepth = std::max<std::size_t>(tf, 2048);
    cfg.host.tau = tau;
    cfg.watchdogCycles = 500000;
    return cfg;
}

/** Arm @p cfg with the full protected-recovery stack. */
void
protect(CoprocConfig &cfg, const std::string &spec,
        fault::ParityMode parity = fault::ParityMode::Correct,
        Cycle timeout = 20000, unsigned budget = 4)
{
    cfg.faults = fault::parseFaultSpec(spec);
    cfg.cell.parity = parity;
    cfg.host.recovery.enabled = true;
    cfg.host.recovery.timeoutCycles = timeout;
    cfg.host.recovery.retryBudget = budget;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar)
{
    auto spec = fault::parseFaultSpec(
        "seed=42,rate=12.5,horizon=5000,kinds=flip+hang,bits=1,"
        "at=100/flip/2/sum/4,at=200/hang/0/0");
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_DOUBLE_EQ(spec.ratePerMcycle, 12.5);
    EXPECT_EQ(spec.horizon, 5000u);
    EXPECT_EQ(spec.maxFlipBits, 1u);
    EXPECT_TRUE(spec.kindEnabled(fault::FaultKind::FifoFlip));
    EXPECT_TRUE(spec.kindEnabled(fault::FaultKind::CellHang));
    EXPECT_FALSE(spec.kindEnabled(fault::FaultKind::BusDrop));
    ASSERT_EQ(spec.explicitEvents.size(), 2u);
    EXPECT_EQ(spec.explicitEvents[0].at, 100u);
    EXPECT_EQ(spec.explicitEvents[0].site, fault::FifoSite::Sum);
    EXPECT_EQ(spec.explicitEvents[0].mask, 4u);
    EXPECT_EQ(spec.explicitEvents[1].kind, fault::FaultKind::CellHang);
    EXPECT_EQ(spec.explicitEvents[1].arg, 0u);
    EXPECT_TRUE(spec.any());
    EXPECT_FALSE(fault::parseFaultSpec("").any());
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(fault::parseFaultSpec("bogus=1"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("kinds=warp"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("rate=fast"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("at=99"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("at=99/zap"), FaultSpecError);
    EXPECT_THROW(fault::parseFaultSpec("at=9/flip/0/nowhere"),
                 FaultSpecError);
    EXPECT_THROW(fault::parseParityMode("perhaps"), FaultSpecError);
}

TEST(FaultPlan, SeedReproducible)
{
    auto spec = fault::parseFaultSpec("seed=9,n=40,horizon=100000");
    auto a = fault::buildPlan(spec, 4);
    auto b = fault::buildPlan(spec, 4);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 40u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].cell, b[i].cell);
        EXPECT_EQ(a[i].site, b[i].site);
        EXPECT_EQ(a[i].mask, b[i].mask);
        EXPECT_EQ(a[i].arg, b[i].arg);
        if (i > 0) {
            EXPECT_GE(a[i].at, a[i - 1].at); // sorted schedule
        }
        EXPECT_LT(a[i].cell, 4u);
    }
    // A different seed must give a different schedule.
    auto spec2 = fault::parseFaultSpec("seed=10,n=40,horizon=100000");
    auto c = fault::buildPlan(spec2, 4);
    bool differs = false;
    for (std::size_t i = 0; i < c.size(); ++i)
        differs = differs || c[i].at != a[i].at
                  || c[i].kind != a[i].kind;
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------
// SECDED
// ---------------------------------------------------------------------

TEST(Secded, CorrectsSingleBitDetectsDoubleBit)
{
    Rng rng(3);
    std::vector<Word> words = {0u, 0xffffffffu, 0xdeadbeefu,
                               0x80000000u, 1u};
    for (int i = 0; i < 20; ++i)
        words.push_back(Word(rng.next()));
    for (Word w : words) {
        std::uint8_t ecc = fault::secdedEncode(w);
        Word clean = w;
        EXPECT_EQ(fault::secdedDecode(clean, ecc),
                  fault::SecdedResult::Ok);
        EXPECT_EQ(clean, w);
        for (unsigned bit = 0; bit < 32; ++bit) {
            Word flipped = w ^ (1u << bit);
            EXPECT_EQ(fault::secdedDecode(flipped, ecc),
                      fault::SecdedResult::Corrected);
            EXPECT_EQ(flipped, w); // repaired in place
        }
        for (unsigned bit = 0; bit < 31; ++bit) {
            Word dbl = w ^ (3u << bit);
            EXPECT_EQ(fault::secdedDecode(dbl, ecc),
                      fault::SecdedResult::Uncorrectable);
        }
    }
}

// ---------------------------------------------------------------------
// Per-site parity survival
// ---------------------------------------------------------------------

namespace
{

/** One-cell GEMM; returns the result matrix. */
Matrix
runGemm(CoprocConfig cfg)
{
    Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    Rng rng(5);
    Matrix c(12, 12), a(12, 8), b(8, 12);
    c.randomize(rng);
    a.randomize(rng);
    b.randomize(rng);
    MatRef cr = allocMat(sys.memory(), 12, 12);
    MatRef ar = allocMat(sys.memory(), 12, 8);
    MatRef br = allocMat(sys.memory(), 8, 12);
    storeMat(sys.memory(), cr, c);
    storeMat(sys.memory(), ar, a);
    storeMat(sys.memory(), br, b);
    JobRunner jobs(sys);
    jobs.add("gemm", [&sys, cr, ar, br](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.matUpdate(cr, ar, br);
        return plan.takeOps();
    });
    jobs.dispatch();
    sys.run();
    return loadMat(sys.memory(), cr);
}

} // anonymous namespace

class ParitySites : public ::testing::TestWithParam<const char *>
{};

TEST_P(ParitySites, FlipSurvivesInBothProtectionModes)
{
    const char *site = GetParam();
    Matrix want = runGemm(makeConfig(1));
    for (auto mode :
         {fault::ParityMode::Correct, fault::ParityMode::Detect}) {
        CoprocConfig cfg = makeConfig(1);
        // One single-bit flip into this site mid-run. In Correct mode
        // it is repaired on the spot; in Detect mode the cell faults
        // and the transaction retries.
        protect(cfg, strfmt("at=300/flip/0/%s/16", site), mode, 4000);
        Matrix got = runGemm(cfg);
        EXPECT_EQ(got.maxAbsDiff(want), 0.0f)
            << "site " << site << " mode "
            << fault::parityModeName(mode);
    }
}

INSTANTIATE_TEST_SUITE_P(AllSevenQueues, ParitySites,
                         ::testing::Values("tpx", "tpy", "tpo", "tpi",
                                           "sum", "ret", "reby"));

TEST(Parity, CorrectionAndDetectionAreCounted)
{
    // A flip into tpx while the host streams operands: Correct mode
    // must log a correction, Detect mode a detection plus a retry.
    CoprocConfig cfg = makeConfig(1);
    protect(cfg, "at=300/flip/0/tpx/1", fault::ParityMode::Correct,
            4000);
    {
        Coprocessor sys(cfg);
        kernels::installStandardKernels(sys);
        Rng rng(5);
        Matrix c(12, 12), a(12, 8), b(8, 12);
        c.randomize(rng);
        a.randomize(rng);
        b.randomize(rng);
        MatRef cr = allocMat(sys.memory(), 12, 12);
        MatRef ar = allocMat(sys.memory(), 12, 8);
        MatRef br = allocMat(sys.memory(), 8, 12);
        storeMat(sys.memory(), cr, c);
        storeMat(sys.memory(), ar, a);
        storeMat(sys.memory(), br, b);
        LinalgPlanner plan(sys);
        plan.matUpdate(cr, ar, br);
        plan.commit();
        sys.run();
        EXPECT_EQ(sys.cell(0).tpx().totalFaultsInjected(), 1u);
        EXPECT_EQ(sys.cell(0).tpx().totalParityCorrected(), 1u);
        EXPECT_EQ(sys.cell(0).tpx().totalParityDetected(), 0u);
        ASSERT_NE(sys.injector(), nullptr);
        EXPECT_EQ(sys.injector()->injected(), 1u);
        EXPECT_EQ(sys.injector()->planSize(), 1u);
    }
    cfg.cell.parity = fault::ParityMode::Detect;
    {
        Coprocessor sys(cfg);
        kernels::installStandardKernels(sys);
        Rng rng(5);
        Matrix c(12, 12), a(12, 8), b(8, 12);
        c.randomize(rng);
        a.randomize(rng);
        b.randomize(rng);
        MatRef cr = allocMat(sys.memory(), 12, 12);
        MatRef ar = allocMat(sys.memory(), 12, 8);
        MatRef br = allocMat(sys.memory(), 8, 12);
        storeMat(sys.memory(), cr, c);
        storeMat(sys.memory(), ar, a);
        storeMat(sys.memory(), br, b);
        JobRunner jobs(sys);
        jobs.add("gemm", [&sys, cr, ar, br](std::uint32_t alive) {
            LinalgPlanner plan(sys, alive);
            plan.matUpdate(cr, ar, br);
            return plan.takeOps();
        });
        jobs.dispatch();
        sys.run();
        EXPECT_EQ(sys.cell(0).tpx().totalParityDetected(), 1u);
        EXPECT_EQ(sys.cell(0).tpx().totalParityCorrected(), 0u);
        EXPECT_GE(sys.host().retries(), 1u);
        EXPECT_EQ(sys.host().deadCells(), 0u);
        Matrix got = loadMat(sys.memory(), cr);
        Matrix want = c;
        blasref::gemm(want, a, b);
        EXPECT_LT(got.maxAbsDiff(want), 1e-3f);
    }
}

// ---------------------------------------------------------------------
// Retry + replay across the kernel library
// ---------------------------------------------------------------------

namespace
{

/**
 * A named workload: sets up inputs in @p sys, registers jobs, and
 * returns the memory regions holding the results.
 */
using Regions = std::vector<std::pair<std::size_t, std::size_t>>;
using WorkloadFn = Regions (*)(Coprocessor &, JobRunner &);

Regions
linalgWorkload(Coprocessor &sys, JobRunner &jobs)
{
    auto &mem = sys.memory();
    Rng rng(11);
    // GEMM add + subtract (mat_update kernels, both signs).
    Matrix c(16, 16), a(16, 12), b(12, 16);
    c.randomize(rng);
    a.randomize(rng);
    b.randomize(rng);
    MatRef cr = allocMat(mem, 16, 16);
    MatRef ar = allocMat(mem, 16, 12);
    MatRef br = allocMat(mem, 12, 16);
    storeMat(mem, cr, c);
    storeMat(mem, ar, a);
    storeMat(mem, br, b);
    jobs.add("gemm", [&sys, cr, ar, br](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.matUpdate(cr, ar, br);
        plan.matUpdate(cr, ar, br, /*negate=*/true);
        return plan.takeOps();
    });
    // LU (lu_leaf, tr_solve, recip_nr) and Cholesky (cholesky_leaf).
    Matrix lu(20, 20);
    lu.randomize(rng);
    for (std::size_t i = 0; i < 20; ++i)
        lu.at(i, i) += 8.0f; // diagonally dominant: stable, no pivots
    MatRef lur = allocMat(mem, 20, 20);
    storeMat(mem, lur, lu);
    jobs.add("lu", [&sys, lur](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.lu(lur);
        return plan.takeOps();
    });
    Matrix spd(12, 12, 0.0f);
    for (std::size_t i = 0; i < 12; ++i)
        for (std::size_t j = 0; j < 12; ++j)
            spd.at(i, j) = (i == j ? 14.0f : 0.0f)
                           + 0.5f / float(1 + i + j);
    MatRef spdr = allocMat(mem, 12, 12);
    storeMat(mem, spdr, spd);
    jobs.add("cholesky", [&sys, spdr](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.cholesky(spdr);
        return plan.takeOps();
    });
    return {{cr.base, 16 * 16}, {lur.base, 20 * 20},
            {spdr.base, 12 * 12}};
}

Regions
signalWorkload(Coprocessor &sys, JobRunner &jobs)
{
    auto &mem = sys.memory();
    Rng rng(13);
    const std::size_t n = 64, batch = 2;
    std::size_t fin = mem.alloc(2 * n * batch);
    std::size_t fout = mem.alloc(2 * n * batch);
    std::size_t rin = mem.alloc(2 * n * batch);
    std::size_t rout = mem.alloc(2 * n * batch);
    for (std::size_t i = 0; i < 2 * n * batch; ++i) {
        float v = rng.uniform(-1.0f, 1.0f);
        mem.storeF(fin + i, v);
        mem.storeF(rin + i, v);
    }
    jobs.add("fft", [&sys, fin, fout, n, batch](std::uint32_t alive) {
        SignalPlanner plan(sys, alive);
        plan.fft(fin, fout, n, batch);
        return plan.takeOps();
    });
    jobs.add("fft_resident",
             [&sys, rin, rout, n, batch](std::uint32_t alive) {
                 SignalPlanner plan(sys, alive);
                 plan.fftResident(rin, rout, n, batch);
                 return plan.takeOps();
             });
    const std::size_t nx = 256, lags = 8;
    std::size_t x = mem.alloc(nx);
    std::size_t y = mem.alloc(nx + lags - 1);
    std::size_t corr = mem.alloc(lags);
    for (std::size_t i = 0; i < nx; ++i)
        mem.storeF(x + i, rng.uniform(-1.0f, 1.0f));
    for (std::size_t i = 0; i < nx + lags - 1; ++i)
        mem.storeF(y + i, rng.uniform(-1.0f, 1.0f));
    jobs.add("correlation",
             [&sys, x, nx, y, lags, corr](std::uint32_t alive) {
                 SignalPlanner plan(sys, alive);
                 plan.correlation(x, nx, y, lags, corr);
                 return plan.takeOps();
             });
    // gemv and conv2d (generated microcode) on small shapes.
    MatRef ga = allocMat(mem, 16, 24);
    std::size_t gx = mem.alloc(24), gy = mem.alloc(16);
    for (std::size_t i = 0; i < 16 * 24; ++i)
        mem.storeF(ga.base + i, rng.uniform(-1.0f, 1.0f));
    for (std::size_t i = 0; i < 24; ++i)
        mem.storeF(gx + i, rng.uniform(-1.0f, 1.0f));
    for (std::size_t i = 0; i < 16; ++i)
        mem.storeF(gy + i, rng.uniform(-1.0f, 1.0f));
    jobs.add("gemv", [&sys, ga, gx, gy](std::uint32_t alive) {
        SignalPlanner plan(sys, alive);
        plan.gemv(ga, gx, gy);
        return plan.takeOps();
    });
    const std::size_t in = 8, im = 20;
    const unsigned p = 3, q = 3;
    Matrix img(in, im), w(p, q);
    img.randomize(rng);
    w.randomize(rng);
    MatRef image_t = allocMat(mem, im + q - 1, in + p);
    for (std::size_t r = 0; r < image_t.cols; ++r) {
        for (std::size_t cc = 0; cc < image_t.rows; ++cc) {
            float v = 0.0f;
            if (r < img.rows() && cc < img.cols())
                v = img.at(r, cc);
            mem.storeF(image_t.addrOf(cc, r), v);
        }
    }
    MatRef wr = allocMat(mem, p, q);
    storeMat(mem, wr, w);
    MatRef out_t = allocMat(mem, im, in);
    jobs.add("conv2d",
             [&sys, image_t, wr, out_t, in, im](std::uint32_t alive) {
                 SignalPlanner plan(sys, alive);
                 plan.conv2d(image_t, wr, out_t, in, im);
                 return plan.takeOps();
             });
    return {{fout, 2 * n * batch},
            {rout, 2 * n * batch},
            {corr, lags},
            {gy, 16},
            {out_t.base, in * im}};
}

std::vector<float>
runWorkload(CoprocConfig cfg, WorkloadFn fn, Cycle *cycles = nullptr)
{
    Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    JobRunner jobs(sys);
    Regions regions = fn(sys, jobs);
    jobs.dispatch();
    Cycle cy = sys.run();
    if (cycles)
        *cycles = cy;
    std::vector<float> out;
    for (auto [base, count] : regions)
        for (std::size_t i = 0; i < count; ++i)
            out.push_back(sys.memory().loadF(base + i));
    return out;
}

} // anonymous namespace

class RecoverySurvival
    : public ::testing::TestWithParam<std::pair<const char *, WorkloadFn>>
{};

TEST_P(RecoverySurvival, RetryReplayIsOracleIdentical)
{
    auto [name, fn] = GetParam();
    // Oracle: the same workload on the same machine, fault-free.
    Cycle clean_cycles = 0;
    std::vector<float> want =
        runWorkload(makeConfig(2), fn, &clean_cycles);
    ASSERT_FALSE(want.empty());
    // Size the random plan to the run so faults actually land: ~5
    // faults of every recoverable kind across three seeds.
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        CoprocConfig cfg = makeConfig(2);
        Cycle horizon = clean_cycles > 200 ? clean_cycles * 3 / 4 : 200;
        protect(cfg,
                strfmt("seed=%llu,n=5,horizon=%llu,"
                       "kinds=flip+drop+dup+hang+halt+mem",
                       (unsigned long long)seed,
                       (unsigned long long)horizon));
        std::vector<float> got = runWorkload(cfg, fn);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i])
                << name << " seed " << seed << " word " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    KernelLibrary, RecoverySurvival,
    ::testing::Values(std::make_pair("linalg", &linalgWorkload),
                      std::make_pair("signal", &signalWorkload)));

// ---------------------------------------------------------------------
// Dead-cell degradation
// ---------------------------------------------------------------------

TEST(Recovery, DeadCellDegradesOntoSurvivors)
{
    // Cell 1 hangs permanently mid-run: reset cannot revive it, the
    // retry budget runs out, and the work must finish on cells 0/2/3.
    // The dead cell's local-queue occupancy stops at its death; the
    // pin was recorded from the per-round sampling model, in which a
    // dead cell's tick samples nothing.
    for (sim::EngineMode mode :
         {sim::EngineMode::Spin, sim::EngineMode::Skip}) {
        CoprocConfig cfg = makeConfig(4);
        cfg.engineMode = mode;
        protect(cfg, "at=2500/hang/1/0", fault::ParityMode::Correct,
                /*timeout=*/3000, /*budget=*/2);
        Coprocessor sys(cfg);
        kernels::installStandardKernels(sys);
        Rng rng(7);
        const unsigned njobs = 3;
        std::vector<Matrix> want(njobs);
        std::vector<MatRef> cr(njobs);
        JobRunner jobs(sys);
        for (unsigned j = 0; j < njobs; ++j) {
            Matrix c(20, 20), a(20, 12), b(12, 20);
            c.randomize(rng);
            a.randomize(rng);
            b.randomize(rng);
            want[j] = c;
            blasref::gemm(want[j], a, b);
            cr[j] = allocMat(sys.memory(), 20, 20);
            MatRef ar = allocMat(sys.memory(), 20, 12);
            MatRef br = allocMat(sys.memory(), 12, 20);
            storeMat(sys.memory(), cr[j], c);
            storeMat(sys.memory(), ar, a);
            storeMat(sys.memory(), br, b);
            jobs.add(strfmt("gemm%u", j),
                     [&sys, c = cr[j], ar, br](std::uint32_t alive) {
                         LinalgPlanner plan(sys, alive);
                         plan.matUpdate(c, ar, br);
                         return plan.takeOps();
                     });
        }
        jobs.dispatch();
        sys.run();
        const char *m = sim::engineModeName(mode);
        EXPECT_EQ(sys.host().deadCells(), 1u) << m;
        EXPECT_EQ(sys.host().aliveMask(), 0b1101u) << m;
        EXPECT_TRUE(sys.cell(1).dead()) << m;
        EXPECT_EQ(sys.host().completedJobs().size(), njobs) << m;
        EXPECT_GE(jobs.replans(), 1u) << m;
        for (unsigned j = 0; j < njobs; ++j)
            EXPECT_LT(loadMat(sys.memory(), cr[j]).maxAbsDiff(want[j]),
                      1e-3f)
                << m << " job " << j;
        const test::OccupancyPin occ =
            test::localOccupancy(sys.statsJson(), 4);
        EXPECT_TRUE(occ.digest == 0x3f6d6d98c8caf59full
                    && occ.samples == 304563)
            << m << ": got 0x" << std::hex << occ.digest << std::dec
            << ", " << occ.samples << " samples\n"
            << occ.objects;
    }
}

TEST(Recovery, AllCellsDeadThrowsRecoveryError)
{
    CoprocConfig cfg = makeConfig(1);
    protect(cfg, "at=300/hang/0/0", fault::ParityMode::Correct,
            /*timeout=*/1000, /*budget=*/1);
    Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);
    Rng rng(5);
    Matrix c(12, 12), a(12, 8), b(8, 12);
    c.randomize(rng);
    a.randomize(rng);
    b.randomize(rng);
    MatRef cr = allocMat(sys.memory(), 12, 12);
    MatRef ar = allocMat(sys.memory(), 12, 8);
    MatRef br = allocMat(sys.memory(), 8, 12);
    storeMat(sys.memory(), cr, c);
    storeMat(sys.memory(), ar, a);
    storeMat(sys.memory(), br, b);
    JobRunner jobs(sys);
    jobs.add("gemm", [&sys, cr, ar, br](std::uint32_t alive) {
        LinalgPlanner plan(sys, alive);
        plan.matUpdate(cr, ar, br);
        return plan.takeOps();
    });
    jobs.dispatch();
    EXPECT_THROW(sys.run(), RecoveryError);
}

// ---------------------------------------------------------------------
// Watchdog callback
// ---------------------------------------------------------------------

namespace
{

/** Never finishes, never progresses: pure watchdog bait. */
struct StuckComponent : sim::Component
{
    StuckComponent() : sim::Component("stuck") {}
    void tick(sim::Engine &) override {}
    bool done() const override { return false; }
    Cycle nextEventAt(Cycle) const override { return noEvent; }
};

} // anonymous namespace

TEST(Watchdog, NonFatalHandlerCanDeferDeadlock)
{
    StuckComponent stuck;
    sim::Engine eng(/*watchdog_cycles=*/1000);
    eng.add(&stuck);
    unsigned calls = 0;
    eng.setWatchdogHandler([&calls](sim::Engine &) {
        ++calls;
        return calls < 3; // claim twice, then let it die
    });
    EXPECT_THROW(eng.run(), DeadlockError);
    EXPECT_EQ(calls, 3u);
    // Two claimed timeouts plus the fatal one: >= 3 watchdog windows.
    EXPECT_GE(eng.now(), 3000u);
}
