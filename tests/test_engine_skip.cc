/**
 * @file
 * Golden-equivalence suite for idle-cycle skipping: for every workload
 * and machine shape, a skip-mode run must be bit-identical to the
 * spin-mode run — same cycle count, same statistics JSON (including
 * the sampled time series), same trace event stream. Also covers the
 * parallel sweep runner: a multi-threaded sweep must produce exactly
 * the results of a serial one (and is the TSan target for the
 * simulator's thread-safety claims).
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "kernels/kernel_set.hh"
#include "planner/linalg_plan.hh"
#include "sim/sweep.hh"
#include "trace/trace.hh"

using namespace opac;
using namespace opac::planner;
using copro::CoprocConfig;
using copro::Coprocessor;
using sim::EngineMode;

namespace
{

enum class Workload
{
    MatUpdate,
    Lu,
    Trmm,
    Syrk,
};

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::MatUpdate:
        return "matupdate";
      case Workload::Lu:
        return "lu";
      case Workload::Trmm:
        return "trmm";
      case Workload::Syrk:
        return "syrk";
    }
    return "?";
}

struct RunOut
{
    Cycle cycles = 0;
    std::string statsJson;
    std::vector<trace::Event> events;
    std::uint64_t fastForwards = 0;
    std::uint64_t skippedCycles = 0;
};

RunOut
runWorkload(Workload w, unsigned p, std::size_t tf, unsigned tau,
            EngineMode mode, bool traced)
{
    CoprocConfig cfg;
    cfg.cells = p;
    cfg.cell.tf = tf;
    cfg.host.tau = tau;
    cfg.watchdogCycles = 500000;
    cfg.engineMode = mode;
    cfg.statsSampleInterval = 64;
    Coprocessor sys(cfg);
    kernels::installStandardKernels(sys);

    trace::Tracer tracer;
    trace::VectorSink sink;
    if (traced) {
        tracer.addSink(&sink);
        sys.attachTracer(&tracer);
    }

    LinalgPlanner plan(sys);
    const std::size_t n = 24, k = 40;
    switch (w) {
      case Workload::MatUpdate: {
        MatRef c = allocMat(sys.memory(), n, n);
        MatRef a = allocMat(sys.memory(), n, k);
        MatRef b = allocMat(sys.memory(), k, n);
        plan.matUpdate(c, a, b);
        break;
      }
      case Workload::Lu: {
        MatRef a = allocMat(sys.memory(), n, n);
        for (std::size_t i = 0; i < n; ++i)
            sys.memory().storeF(a.addrOf(i, i), 2.0f);
        plan.lu(a);
        break;
      }
      case Workload::Trmm: {
        MatRef u = allocMat(sys.memory(), n, n);
        MatRef b = allocMat(sys.memory(), n, 16);
        MatRef out = allocMat(sys.memory(), n, 16);
        plan.trmmLeftUpper(out, u, b);
        break;
      }
      case Workload::Syrk: {
        MatRef c = allocMat(sys.memory(), n, n);
        MatRef a = allocMat(sys.memory(), n, 16);
        plan.syrkLower(c, a);
        break;
      }
    }
    plan.commit();

    RunOut out;
    out.cycles = sys.run();
    out.statsJson = sys.statsJson();
    out.events = std::move(sink.events);
    out.fastForwards = sys.engine().fastForwards();
    out.skippedCycles = sys.engine().skippedCycles();
    return out;
}

void
expectSameEvents(const std::vector<trace::Event> &spin,
                 const std::vector<trace::Event> &fast,
                 const char *what)
{
    ASSERT_EQ(spin.size(), fast.size()) << what;
    for (std::size_t i = 0; i < spin.size(); ++i) {
        const trace::Event &a = spin[i];
        const trace::Event &b = fast[i];
        ASSERT_TRUE(a.cycle == b.cycle && a.kind == b.kind &&
                    a.arg == b.arg && a.comp == b.comp &&
                    a.track == b.track && a.a == b.a && a.b == b.b)
            << what << ": event " << i << " differs (cycle "
            << a.cycle << " vs " << b.cycle << ")";
    }
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Skip-mode golden equivalence
// ---------------------------------------------------------------------

TEST(EngineSkip, EveryWorkloadMatchesSpinExactly)
{
    const Workload loads[] = {Workload::MatUpdate, Workload::Lu,
                              Workload::Trmm, Workload::Syrk};
    struct Shape
    {
        unsigned p;
        std::size_t tf;
        unsigned tau;
    };
    const Shape shapes[] = {{1, 512, 2}, {4, 256, 2}, {2, 512, 4}};
    for (Workload w : loads) {
        for (const Shape &s : shapes) {
            RunOut spin = runWorkload(w, s.p, s.tf, s.tau, EngineMode::Spin,
                                      false);
            RunOut fast = runWorkload(w, s.p, s.tf, s.tau, EngineMode::Skip,
                                      false);
            EXPECT_EQ(spin.cycles, fast.cycles)
                << workloadName(w) << " P=" << s.p << " tau=" << s.tau;
            EXPECT_EQ(spin.statsJson, fast.statsJson)
                << workloadName(w) << " P=" << s.p << " tau=" << s.tau;
            EXPECT_EQ(spin.fastForwards, 0u);
        }
    }
}

TEST(EngineSkip, TraceStreamIsIdenticalUnderSkipping)
{
    // A traced run ticks every cycle whatever the mode, so the
    // Skip-configured run must reproduce the spin-mode event order,
    // not just the same set of events.
    const Workload loads[] = {Workload::MatUpdate, Workload::Lu};
    for (Workload w : loads) {
        RunOut spin = runWorkload(w, 2, 256, 4, EngineMode::Spin, true);
        RunOut fast = runWorkload(w, 2, 256, 4, EngineMode::Skip, true);
        EXPECT_EQ(spin.cycles, fast.cycles) << workloadName(w);
        expectSameEvents(spin.events, fast.events, workloadName(w));
    }
}

TEST(EngineSkip, SkippingActuallyHappensOnStallHeavyRuns)
{
    // LU's pivot recurrence serializes a scale pass behind the FP
    // pipeline drain, quiescing the whole system for several cycles at
    // every step; if the engine never fast-forwards there, the feature
    // is dead code and this suite proves nothing.
    RunOut fast = runWorkload(Workload::Lu, 1, 512, 4, EngineMode::Skip,
                              false);
    EXPECT_GT(fast.fastForwards, 0u);
    EXPECT_GT(fast.skippedCycles, 0u);
}

TEST(EngineSkip, SkipDiagnosticsStayOutOfStatsJson)
{
    RunOut fast = runWorkload(Workload::MatUpdate, 1, 512, 4,
                              EngineMode::Skip, false);
    EXPECT_EQ(fast.statsJson.find("fastForward"), std::string::npos);
    EXPECT_EQ(fast.statsJson.find("skippedCycles"), std::string::npos);
}

// ---------------------------------------------------------------------
// Parallel sweep runner
// ---------------------------------------------------------------------

TEST(SweepRunner, ParallelResultsMatchSerialInOrder)
{
    // Each task runs a full simulation; the multi-threaded sweep must
    // return exactly the serial results in task order. This is the
    // TSan target for the simulator's "no shared mutable state between
    // Coprocessor instances" claim.
    std::vector<std::function<Cycle()>> tasks;
    const Workload loads[] = {Workload::MatUpdate, Workload::Lu,
                              Workload::Trmm, Workload::Syrk};
    for (Workload w : loads) {
        for (unsigned p : {1u, 2u}) {
            tasks.push_back([w, p] {
                return runWorkload(w, p, 256, 2, EngineMode::Skip, false)
                    .cycles;
            });
        }
    }
    auto serial = sim::sweep<Cycle>(tasks, 1);
    auto parallel = sim::sweep<Cycle>(tasks, 4);
    ASSERT_EQ(serial.size(), tasks.size());
    EXPECT_EQ(serial, parallel);
}

TEST(SweepRunner, LowestIndexExceptionPropagates)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([i]() -> int {
            if (i == 2)
                throw std::runtime_error("task two");
            if (i == 5)
                throw std::runtime_error("task five");
            return i;
        });
    }
    try {
        sim::sweep<int>(tasks, 4);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task two");
    }
}
