/**
 * @file
 * The golden harness of the identity suites (test_engine_parallel,
 * test_engine_skip, test_snapshot).
 *
 * The spin loop is the reference model of the machine. Every other way
 * of running it — skip mode, the fast tier off or on, a cycle trace
 * attached, a stop followed by a continue, a snapshot restore (in the
 * same or the other engine mode) or a rewind — must reproduce the spin
 * run byte for byte. This header holds the one copy of:
 *  - the workload catalogue (Workload) and its default machine shapes;
 *  - the fault plans (Plan);
 *  - the run configuration (RunSpec);
 *  - the outcome of a run (RunOut);
 *  - the comparison (expectSame), which names the first field that
 *    differs.
 *
 * Full simulations are memoised per test binary: run() simulates each
 * distinct RunSpec at most once, so a spin reference that ten tests
 * compare against is simulated once. The harness counts its
 * simulations and prints the count when the binary exits.
 *
 * Adding a workload: extend Workload, kWorkloads, workloadName(),
 * defaultShape() and the switch in golden.cc's build(); the loops over
 * kWorkloads pick it up. Adding a fault plan: extend Plan, planName()
 * and applyPlan(), then add it to the case lists of the tests that
 * should cover it.
 */

#ifndef OPAC_TESTS_GOLDEN_HH
#define OPAC_TESTS_GOLDEN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coproc/coprocessor.hh"
#include "planner/jobs.hh"
#include "trace/trace.hh"

#include "occupancy_pin.hh"

namespace opac::test::golden
{

using sim::EngineMode;

/** The planned workloads every identity suite draws from. */
enum class Workload
{
    MatUpdate, //!< C(24,24) += A(24,40) B(40,24)
    Lu,        //!< 24x24 LU of a diagonal matrix
    Trmm,      //!< 24x24 upper-triangular times 24x16
    Syrk,      //!< C(24,24) += A A^T, A 24x16
    /**
     * Table 6.2's shape scaled down: a 5x5 conv2d of an 8x256 image,
     * streamed by the host. At its default P = 16, tau = 4 the host
     * stays busy on the bus while every cell runs its chained-FMA
     * passes, so bursts must be per-component.
     */
    Conv,
    /**
     * The fault-recovery job mix, planned as three jobs: gemm then
     * negated gemm (C(16,16) += / -= A(16,12) B(12,16)), a 20x20 LU
     * and a 12x12 Cholesky, on random (seeded) inputs. Runs under the
     * Recovery plan at P = 2, Tf = 512, tau = 2; not in kWorkloads.
     */
    FaultMix,
};

inline constexpr Workload kWorkloads[] = {
    Workload::MatUpdate, Workload::Lu, Workload::Trmm, Workload::Syrk,
    Workload::Conv};

/** The four linear-algebra workloads. */
inline constexpr Workload kLinalg[] = {Workload::MatUpdate, Workload::Lu,
                                       Workload::Trmm, Workload::Syrk};

const char *workloadName(Workload w);

/** Machine shape: cell count, local FIFO depth and host period. */
struct Shape
{
    unsigned p;
    std::size_t tf;
    unsigned tau;
};

/**
 * P = 16, Tf = 256, tau = 4 for conv; P = 2, Tf = 512, tau = 2 for the
 * fault mix; P = 4, Tf = 256, tau = 2 else.
 */
Shape defaultShape(Workload w);

/** Fault plans. */
enum class Plan
{
    None,
    /**
     * Correctable FIFO flips, transient hangs and memory-latency
     * spikes under parity=correct, dense enough (rate is per Mcycle
     * over the horizon) that several land inside even the smallest
     * workload here. Parity makes every queue unstreamable, so no
     * burst is ever granted.
     */
    Corrected,
    /**
     * Corrected's kinds and parity packed into the first 4000 cycles,
     * so that faults land inside the shortest runs too (trmm and syrk
     * finish in about 5000 cycles at P = 4, before most of
     * Corrected's faults arm).
     */
    CorrectedEarly,
    /**
     * Hangs and memory spikes with parity off: bursts stay granted,
     * so faults land inside deferred windows and wake their bursters.
     */
    Unprotected,
    /**
     * Every recoverable kind (flips, bus drops and duplicates, hangs,
     * halts, memory spikes) in the first 4000 cycles, under
     * parity=detect with the transaction retry machinery live (a
     * 2500-cycle deadline, retry budget 4): skipping must neither miss
     * an injection nor shift a timeout. The deadline is only pushed
     * out by bus traffic, so it suits FaultMix's short jobs; a long
     * compute phase (matupdate's) is declared stuck under it.
     */
    Recovery,
};

const char *planName(Plan p);

/** How a stopped run goes on after runUntil(stopAt). */
enum class Resume
{
    Continue, //!< run() on in the same machine
    Restore,  //!< snapshot, restore into a freshly built machine
    Rewind,   //!< snapshot, run to the end, restore, run again
    File,     //!< like Restore, through a snapshot file on disk
};

/** One way of running one workload on one machine. */
struct RunSpec
{
    Workload load;
    Shape shape;
    Plan plan = Plan::None;
    EngineMode mode = EngineMode::Spin;
    bool fastTier = true;
    bool traced = false;
    /** 0: one straight run(); else runUntil(stopAt), then `resume`. */
    Cycle stopAt = 0;
    Resume resume = Resume::Continue;
    /** Mode and tier of the machine a Restore or File resume runs on. */
    EngineMode resumeMode = EngineMode::Spin;
    bool resumeTier = true;

    RunSpec(Workload w, Shape s, Plan p = Plan::None)
        : load(w), shape(s), plan(p)
    {}
    explicit RunSpec(Workload w, Plan p = Plan::None)
        : RunSpec(w, defaultShape(w), p)
    {}

    /** This run in @p m with the fast tier @p tier (resumed alike). */
    RunSpec in(EngineMode m, bool tier = true) const;
    /** This run with a cycle trace attached. */
    RunSpec withTrace() const;
    /** This run stopped at @p at and continued as @p how. */
    RunSpec stoppedAt(Cycle at, Resume how) const;
    /** This run restored into a machine of mode @p m and tier @p tier. */
    RunSpec resumedIn(EngineMode m, bool tier) const;
    /** The spin run this run must reproduce: straight, same trace. */
    RunSpec reference() const;

    /** Unique, readable description (also the memo key). */
    std::string name() const;
};

/** What one run leaves behind. */
struct RunOut
{
    Cycle cycles = 0;       //!< engine clock at the end
    std::string statsJson;  //!< Coprocessor::statsJson()
    std::vector<trace::Event> events; //!< empty unless traced
    std::uint64_t memSum = 0;         //!< FNV-1a of host memory
    OccupancyPin occupancy;           //!< local-queue occupancy
    /** Clock when the resumed leg started (0 for a straight run). */
    Cycle resumedAt = 0;
    // Engine diagnostics: legitimately differ between modes and tiers,
    // so expectSame() never compares them.
    std::uint64_t fastForwards = 0;
    std::uint64_t skippedCycles = 0;
    std::uint64_t bursts = 0;
};

/** The machine configuration of @p r's first leg. */
copro::CoprocConfig config(const RunSpec &r);

/** A built machine with @p w planned onto it. */
struct Machine
{
    std::unique_ptr<copro::Coprocessor> sys;
    /** Keeps the jobs alive for the host's re-plan handler. */
    std::unique_ptr<planner::JobRunner> jobs;
};

Machine build(const copro::CoprocConfig &cfg, Workload w);

/** Simulate @p r (memoised: each distinct run is simulated once). */
const RunOut &run(const RunSpec &r);

/** Simulate @p r now, bypassing the memo (for concurrency tests). */
RunOut simulate(const RunSpec &r);

/**
 * Record a test failure naming the first field in which @p got
 * differs from @p ref (for the stats JSON: the nearest key). Engine
 * diagnostics are not compared.
 */
void expectSame(const RunOut &ref, const RunOut &got,
                const std::string &what);

/** The value of counter @p key (e.g. "system.host.txnRetries"). */
std::uint64_t counter(const RunOut &out, const std::string &key);

/** run(@p r), compared with its reference. Returns @p r's outcome. */
const RunOut &check(const RunSpec &r);

/**
 * The first cycle at or after @p from at which stopping @p r (Skip,
 * fast tier on) lands inside some cell's deferred burst window, so
 * runUntil() must materialize a window prefix; 0 if none within 64
 * cycles. Detected by the grant count: a stop inside a window makes
 * the continued run tick that cell live once and grant the window's
 * remainder again, one grant more than the straight run. Every run of
 * the scan goes through run(), so a repeated scan simulates nothing.
 */
Cycle stopInsideBurst(const RunSpec &r, Cycle from);

} // namespace opac::test::golden

#endif // OPAC_TESTS_GOLDEN_HH
