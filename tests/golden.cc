/**
 * @file
 * The golden harness (see golden.hh): workload catalogue, fault plans,
 * the memoised simulator and the first-difference comparison.
 */

#include "golden.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <mutex>

#include "blasref/matrix.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fault/fault.hh"
#include "kernels/kernel_set.hh"
#include "planner/linalg_plan.hh"
#include "planner/signal_plan.hh"
#include "snap/snapshot.hh"

namespace opac::test::golden
{

using namespace opac::planner;
using copro::CoprocConfig;
using copro::Coprocessor;

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
      case Workload::Conv:
        return "conv";
      case Workload::FaultMix:
        return "faultmix";
    }
    return "?";
}

Shape
defaultShape(Workload w)
{
    switch (w) {
      case Workload::Conv:
        return {16, 256, 4};
      case Workload::FaultMix:
        return {2, 512, 2};
      default:
        return {4, 256, 2};
    }
}

const char *
planName(Plan p)
{
    switch (p) {
      case Plan::None:
        return "none";
      case Plan::Corrected:
        return "corrected";
      case Plan::CorrectedEarly:
        return "corrected-early";
      case Plan::Unprotected:
        return "unprotected";
      case Plan::Recovery:
        return "recovery";
    }
    return "?";
}

RunSpec
RunSpec::in(EngineMode m, bool tier) const
{
    RunSpec r = *this;
    r.mode = r.resumeMode = m;
    r.fastTier = r.resumeTier = tier;
    return r;
}

RunSpec
RunSpec::withTrace() const
{
    RunSpec r = *this;
    r.traced = true;
    return r;
}

RunSpec
RunSpec::stoppedAt(Cycle at, Resume how) const
{
    RunSpec r = *this;
    r.stopAt = at;
    r.resume = how;
    return r;
}

RunSpec
RunSpec::resumedIn(EngineMode m, bool tier) const
{
    RunSpec r = *this;
    r.resumeMode = m;
    r.resumeTier = tier;
    return r;
}

RunSpec
RunSpec::reference() const
{
    RunSpec r(load, shape, plan);
    r.traced = traced;
    return r;
}

std::string
RunSpec::name() const
{
    static const char *const kResume[] = {"continue", "restore",
                                          "rewind", "file"};
    std::string s = strfmt("%s P%u Tf%zu tau%u plan=%s %s tier=%s",
                           workloadName(load), shape.p, shape.tf,
                           shape.tau, planName(plan),
                           sim::engineModeName(mode),
                           fastTier ? "on" : "off");
    if (traced)
        s += " traced";
    if (stopAt != 0) {
        s += strfmt(" stop@%llu %s", (unsigned long long)stopAt,
                    kResume[int(resume)]);
        if (resumeMode != mode || resumeTier != fastTier)
            s += strfmt(" into %s tier=%s",
                        sim::engineModeName(resumeMode),
                        resumeTier ? "on" : "off");
    }
    return s;
}

namespace
{

void
applyPlan(CoprocConfig &cfg, Plan plan)
{
    switch (plan) {
      case Plan::None:
        break;
      case Plan::Corrected:
        cfg.faults = fault::parseFaultSpec(
            "seed=7,rate=500,horizon=20000,kinds=flip+hang+mem,bits=1");
        cfg.cell.parity = fault::ParityMode::Correct;
        break;
      case Plan::CorrectedEarly:
        cfg.faults = fault::parseFaultSpec(
            "seed=7,rate=2500,horizon=4000,kinds=flip+hang+mem,bits=1");
        cfg.cell.parity = fault::ParityMode::Correct;
        break;
      case Plan::Unprotected:
        cfg.faults = fault::parseFaultSpec(
            "seed=7,rate=500,horizon=20000,kinds=hang+mem");
        break;
      case Plan::Recovery:
        cfg.faults = fault::parseFaultSpec(
            "seed=4,n=6,horizon=4000,kinds=flip+drop+dup+hang+halt+mem");
        cfg.cell.parity = fault::ParityMode::Detect;
        cfg.host.recovery.enabled = true;
        cfg.host.recovery.timeoutCycles = 2500;
        cfg.host.recovery.retryBudget = 4;
        break;
    }
}

CoprocConfig
configIn(const RunSpec &r, EngineMode mode, bool tier)
{
    CoprocConfig cfg;
    cfg.cells = r.shape.p;
    cfg.cell.tf = r.shape.tf;
    cfg.host.tau = r.shape.tau;
    cfg.watchdogCycles = 500000;
    cfg.statsSampleInterval = 64;
    cfg.engineMode = mode;
    cfg.fastTier = tier;
    applyPlan(cfg, r.plan);
    return cfg;
}

std::uint64_t
memChecksum(Coprocessor &sys)
{
    const host::HostMemory &mem = sys.memory();
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < mem.mark(); ++i)
        h = (h ^ mem.load(i)) * 1099511628211ull;
    return h;
}

/** A tracer feeding a vector, attached to a machine when asked. */
struct Recorder
{
    trace::Tracer tracer;
    trace::VectorSink sink;

    void
    attach(Coprocessor &sys, bool traced)
    {
        if (!traced)
            return;
        tracer.addSink(&sink);
        sys.attachTracer(&tracer);
    }
};

// Simulation bookkeeping, shared by every test of the binary.
std::mutex memoMtx;
struct Slot
{
    std::once_flag once;
    RunOut out;
};
std::map<std::string, std::unique_ptr<Slot>> memo;
/** Simulations per run name (more than 1: simulated twice). */
std::map<std::string, unsigned> simulated;

/** Prints the simulation count when the test binary finishes. */
class CountReport : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        std::lock_guard<std::mutex> lock(memoMtx);
        unsigned total = 0;
        for (const auto &[name, n] : simulated)
            total += n;
        std::printf("[golden] %u full simulations of %zu distinct runs\n",
                    total, simulated.size());
    }
};

[[maybe_unused]] ::testing::Environment *const countReport =
    ::testing::AddGlobalTestEnvironment(new CountReport);

/**
 * FaultMix's three jobs on random inputs: gemm then negated gemm, a
 * diagonally dominant LU (stable without pivots) and an SPD Cholesky.
 */
void
addFaultMix(Coprocessor &sys, JobRunner &jobs)
{
    using blasref::Matrix;
    host::HostMemory &mem = sys.memory();
    Rng rng(11);
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
        LinalgPlanner p(sys, alive);
        p.matUpdate(cr, ar, br);
        p.matUpdate(cr, ar, br, /*negate=*/true);
        return p.takeOps();
    });
    Matrix lu(20, 20);
    lu.randomize(rng);
    for (std::size_t i = 0; i < 20; ++i)
        lu.at(i, i) += 8.0f;
    MatRef lur = allocMat(mem, 20, 20);
    storeMat(mem, lur, lu);
    jobs.add("lu", [&sys, lur](std::uint32_t alive) {
        LinalgPlanner p(sys, alive);
        p.lu(lur);
        return p.takeOps();
    });
    Matrix spd(12, 12, 0.0f);
    for (std::size_t i = 0; i < 12; ++i)
        for (std::size_t j = 0; j < 12; ++j)
            spd.at(i, j) = (i == j ? 14.0f : 0.0f)
                           + 0.5f / float(1 + i + j);
    MatRef spdr = allocMat(mem, 12, 12);
    storeMat(mem, spdr, spd);
    jobs.add("cholesky", [&sys, spdr](std::uint32_t alive) {
        LinalgPlanner p(sys, alive);
        p.cholesky(spdr);
        return p.takeOps();
    });
}

} // anonymous namespace

CoprocConfig
config(const RunSpec &r)
{
    return configIn(r, r.mode, r.fastTier);
}

Machine
build(const CoprocConfig &cfg, Workload w)
{
    Machine m;
    m.sys = std::make_unique<Coprocessor>(cfg);
    Coprocessor &sys = *m.sys;
    kernels::installStandardKernels(sys);
    // Planned as one job (FaultMix: three): byte-identical to
    // committing the planner when recovery is off, and re-plannable
    // onto survivors when a Recovery plan kills a cell.
    m.jobs = std::make_unique<JobRunner>(sys);
    host::HostMemory &mem = sys.memory();
    const std::size_t n = 24, k = 40;
    Job::PlanFn plan;
    switch (w) {
      case Workload::MatUpdate: {
        MatRef c = allocMat(mem, n, n);
        MatRef a = allocMat(mem, n, k);
        MatRef b = allocMat(mem, k, n);
        plan = [&sys, c, a, b](std::uint32_t alive) {
            LinalgPlanner p(sys, alive);
            p.matUpdate(c, a, b);
            return p.takeOps();
        };
        break;
      }
      case Workload::Lu: {
        MatRef a = allocMat(mem, n, n);
        for (std::size_t i = 0; i < n; ++i)
            mem.storeF(a.addrOf(i, i), 2.0f);
        plan = [&sys, a](std::uint32_t alive) {
            LinalgPlanner p(sys, alive);
            p.lu(a);
            return p.takeOps();
        };
        break;
      }
      case Workload::Trmm: {
        MatRef u = allocMat(mem, n, n);
        MatRef b = allocMat(mem, n, 16);
        MatRef out = allocMat(mem, n, 16);
        plan = [&sys, u, b, out](std::uint32_t alive) {
            LinalgPlanner p(sys, alive);
            p.trmmLeftUpper(out, u, b);
            return p.takeOps();
        };
        break;
      }
      case Workload::Syrk: {
        MatRef c = allocMat(mem, n, n);
        MatRef a = allocMat(mem, n, 16);
        plan = [&sys, c, a](std::uint32_t alive) {
            LinalgPlanner p(sys, alive);
            p.syrkLower(c, a);
            return p.takeOps();
        };
        break;
      }
      case Workload::Conv: {
        // 16 columns per cell at P = 16: passes long enough for the
        // dense steady state to outlast the pipeline ramp.
        const std::size_t rows = 8, cols = 256;
        const unsigned kp = 5, kq = 5;
        MatRef image_t = allocMat(mem, cols + kq - 1, rows + kp);
        MatRef wr = allocMat(mem, kp, kq);
        MatRef out_t = allocMat(mem, cols, rows);
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
                mem.storeF(image_t.addrOf(c, r),
                           float((r * 7 + c * 3) % 11) - 5.0f);
            }
        }
        for (unsigned i = 0; i < kp; ++i) {
            for (unsigned j = 0; j < kq; ++j)
                mem.storeF(wr.addrOf(i, j), 0.25f * (i + j));
        }
        plan = [&sys, image_t, wr, out_t, rows,
                cols](std::uint32_t alive) {
            SignalPlanner p(sys, alive);
            p.conv2d(image_t, wr, out_t, rows, cols);
            return p.takeOps();
        };
        break;
      }
      case Workload::FaultMix:
        addFaultMix(sys, *m.jobs);
        break;
    }
    if (plan)
        m.jobs->add(workloadName(w), std::move(plan));
    m.jobs->dispatch();
    return m;
}

RunOut
simulate(const RunSpec &r)
{
    {
        std::lock_guard<std::mutex> lock(memoMtx);
        ++simulated[r.name()];
    }

    RunOut out;
    // Declared before the machines that point at them.
    Recorder first, second;
    Machine m = build(config(r), r.load);
    first.attach(*m.sys, r.traced);
    if (r.stopAt != 0) {
        m.sys->runUntil(r.stopAt);
        EXPECT_EQ(m.sys->engine().now(), r.stopAt) << r.name();
        switch (r.resume) {
          case Resume::Continue:
            break;
          case Resume::Rewind: {
            // Everything the machine does past the snapshot must
            // vanish on restore, occupancy included.
            opac_assert(!r.traced, "a rewound trace repeats its suffix");
            snap::Snapshot s = m.sys->takeSnapshot();
            m.sys->run();
            EXPECT_GT(m.sys->engine().now(), r.stopAt) << r.name();
            m.sys->restoreSnapshot(s);
            break;
          }
          case Resume::Restore:
          case Resume::File: {
            snap::Snapshot s = m.sys->takeSnapshot();
            EXPECT_EQ(s.cycle, r.stopAt) << r.name();
            std::string path;
            if (r.resume == Resume::File) {
                path = strfmt("snapshot_test_%zx.snap",
                              std::hash<std::string>{}(r.name()));
                m.sys->saveSnapshot(path);
            }
            m = Machine{};
            // A fresh machine, as another process would build it.
            m = build(configIn(r, r.resumeMode, r.resumeTier), r.load);
            second.attach(*m.sys, r.traced);
            if (path.empty()) {
                m.sys->restoreSnapshot(s);
            } else {
                m.sys->loadSnapshot(path);
                std::remove(path.c_str());
            }
            break;
          }
        }
        out.resumedAt = m.sys->engine().now();
    }
    m.sys->run();

    Coprocessor &sys = *m.sys;
    out.cycles = sys.engine().now();
    out.statsJson = sys.statsJson();
    out.events = std::move(first.sink.events);
    out.events.insert(out.events.end(), second.sink.events.begin(),
                      second.sink.events.end());
    out.memSum = memChecksum(sys);
    out.occupancy = localOccupancy(out.statsJson, r.shape.p);
    out.fastForwards = sys.engine().fastForwards();
    out.skippedCycles = sys.engine().skippedCycles();
    out.bursts = sys.engine().bursts();
    return out;
}

const RunOut &
run(const RunSpec &r)
{
    Slot *slot;
    {
        std::lock_guard<std::mutex> lock(memoMtx);
        std::unique_ptr<Slot> &s = memo[r.name()];
        if (!s)
            s = std::make_unique<Slot>();
        slot = s.get();
    }
    std::call_once(slot->once, [&] { slot->out = simulate(r); });
    return slot->out;
}

namespace
{

/** The key whose value holds byte @p at of a stats JSON dump. */
std::string
keyAt(const std::string &json, std::size_t at)
{
    const std::size_t colon = json.rfind("\": ", at);
    if (colon == std::string::npos)
        return "(top level)";
    const std::size_t open = json.rfind('"', colon - 1);
    return json.substr(open + 1, colon - open - 1);
}

std::string
excerpt(const std::string &s, std::size_t at)
{
    return s.substr(at, 40);
}

bool
sameEvent(const trace::Event &a, const trace::Event &b)
{
    return a.cycle == b.cycle && a.kind == b.kind && a.arg == b.arg
           && a.comp == b.comp && a.track == b.track && a.a == b.a
           && a.b == b.b;
}

} // anonymous namespace

void
expectSame(const RunOut &ref, const RunOut &got, const std::string &what)
{
    if (ref.cycles != got.cycles) {
        ADD_FAILURE() << what << ": cycles differ: " << ref.cycles
                      << " vs " << got.cycles;
        return;
    }
    if (ref.memSum != got.memSum) {
        ADD_FAILURE() << what << ": memory image differs";
        return;
    }
    if (ref.occupancy.digest != got.occupancy.digest
        || ref.occupancy.samples != got.occupancy.samples) {
        ADD_FAILURE() << what << ": local-queue occupancy differs\n"
                      << ref.occupancy.objects << "vs\n"
                      << got.occupancy.objects;
        return;
    }
    if (ref.statsJson != got.statsJson) {
        const std::string &a = ref.statsJson, &b = got.statsJson;
        std::size_t i = 0;
        while (i < a.size() && i < b.size() && a[i] == b[i])
            ++i;
        ADD_FAILURE() << what << ": stats JSON differs at byte " << i
                      << " in \"" << keyAt(a, i) << "\": ..."
                      << excerpt(a, i) << " vs ..." << excerpt(b, i);
        return;
    }
    const std::size_t n = std::min(ref.events.size(), got.events.size());
    for (std::size_t i = 0; i < n; ++i) {
        const trace::Event &a = ref.events[i], &b = got.events[i];
        if (!sameEvent(a, b)) {
            ADD_FAILURE() << what << ": trace event " << i
                          << " differs (cycle " << a.cycle << " vs "
                          << b.cycle << ")";
            return;
        }
    }
    if (ref.events.size() != got.events.size()) {
        ADD_FAILURE() << what << ": trace has " << got.events.size()
                      << " events, reference " << ref.events.size();
    }
}

std::uint64_t
counter(const RunOut &out, const std::string &key)
{
    const std::string tag = "\"" + key + "\": ";
    const std::size_t at = out.statsJson.find(tag);
    opac_assert(at != std::string::npos, "no counter %s", key.c_str());
    return std::stoull(out.statsJson.substr(at + tag.size()));
}

const RunOut &
check(const RunSpec &r)
{
    const RunOut &got = run(r);
    expectSame(run(r.reference()), got, r.name());
    return got;
}

Cycle
stopInsideBurst(const RunSpec &r, Cycle from)
{
    const RunSpec skip =
        RunSpec(r.load, r.shape, r.plan).in(EngineMode::Skip);
    const std::uint64_t grants = run(skip).bursts;
    for (Cycle at = from; at < from + 64; ++at) {
        if (run(skip.stoppedAt(at, Resume::Continue)).bursts > grants)
            return at;
    }
    return 0;
}

} // namespace opac::test::golden
