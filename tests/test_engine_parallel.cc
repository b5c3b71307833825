/**
 * @file
 * Golden-equivalence suite for the engine modes: the per-component
 * skip scheduler must produce results bit-identical to the spin
 * reference — same cycle count, same statistics JSON (including the
 * sampled time series), same trace event stream — on every workload
 * (the linear-algebra kernels at P = 4, a host-streaming conv2d at
 * P = 16, tau = 4), with and without active fault injection, with the
 * superop fast tier on or off.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.hh"
#include "kernels/kernel_set.hh"
#include "planner/linalg_plan.hh"
#include "planner/signal_plan.hh"
#include "trace/trace.hh"

#include "occupancy_pin.hh"

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
    /**
     * Table 6.2's shape scaled down: 5x5 conv2d streamed by the host
     * to P = 16 cells at tau = 4. The host stays busy on the bus
     * while every cell runs its chained-FMA passes, so bursts must be
     * per-component.
     */
    Conv,
};

/** Cell count each workload runs at in the golden comparisons. */
unsigned
cellsFor(Workload w)
{
    return w == Workload::Conv ? 16 : 4;
}

const Workload kAllLoads[] = {Workload::MatUpdate, Workload::Lu,
                              Workload::Trmm, Workload::Syrk,
                              Workload::Conv};

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
    std::uint64_t bursts = 0;
};

/** Fault plans of the faulted runs. */
enum class Faults
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
     * so that faults land inside the shortest runs here too (trmm and
     * syrk finish in about 5000 cycles, before most of Corrected's
     * faults arm).
     */
    CorrectedEarly,
    /**
     * Hangs and memory spikes with parity off: bursts stay granted,
     * so faults land inside deferred windows and wake their bursters.
     */
    Unprotected,
};

RunOut
runWorkload(Workload w, unsigned p, EngineMode mode, bool traced,
            Faults faults, bool fast_tier = true)
{
    CoprocConfig cfg;
    cfg.cells = p;
    cfg.cell.tf = 256;
    cfg.host.tau = w == Workload::Conv ? 4 : 2;
    cfg.watchdogCycles = 500000;
    cfg.statsSampleInterval = 64;
    cfg.engineMode = mode;
    cfg.fastTier = fast_tier;
    if (faults == Faults::Corrected) {
        cfg.faults = fault::parseFaultSpec(
            "seed=7,rate=500,horizon=20000,kinds=flip+hang+mem,bits=1");
        cfg.cell.parity = fault::ParityMode::Correct;
    } else if (faults == Faults::CorrectedEarly) {
        cfg.faults = fault::parseFaultSpec(
            "seed=7,rate=2500,horizon=4000,kinds=flip+hang+mem,bits=1");
        cfg.cell.parity = fault::ParityMode::Correct;
    } else if (faults == Faults::Unprotected) {
        cfg.faults = fault::parseFaultSpec(
            "seed=7,rate=500,horizon=20000,kinds=hang+mem");
    }
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
      case Workload::Conv: {
        // 16 columns per cell: passes long enough for the dense
        // steady state to outlast the pipeline ramp.
        const std::size_t rows = 8, cols = 256;
        const unsigned kp = 5, kq = 5;
        MatRef image_t = allocMat(sys.memory(), cols + kq - 1, rows + kp);
        MatRef wr = allocMat(sys.memory(), kp, kq);
        MatRef out_t = allocMat(sys.memory(), cols, rows);
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
                sys.memory().storeF(image_t.addrOf(c, r),
                                    float((r * 7 + c * 3) % 11) - 5.0f);
            }
        }
        for (unsigned i = 0; i < kp; ++i) {
            for (unsigned j = 0; j < kq; ++j)
                sys.memory().storeF(wr.addrOf(i, j), 0.25f * (i + j));
        }
        SignalPlanner sig(sys);
        sig.conv2d(image_t, wr, out_t, rows, cols);
        sig.commit();
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
    out.bursts = sys.engine().bursts();
    return out;
}

void
expectSameEvents(const std::vector<trace::Event> &ref,
                 const std::vector<trace::Event> &got, const char *what)
{
    ASSERT_EQ(ref.size(), got.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const trace::Event &a = ref[i];
        const trace::Event &b = got[i];
        ASSERT_TRUE(a.cycle == b.cycle && a.kind == b.kind &&
                    a.arg == b.arg && a.comp == b.comp &&
                    a.track == b.track && a.a == b.a && a.b == b.b)
            << what << ": event " << i << " differs (cycle "
            << a.cycle << " vs " << b.cycle << ")";
    }
}

const EngineMode kModes[] = {EngineMode::Spin, EngineMode::Skip};

} // anonymous namespace

// ---------------------------------------------------------------------
// Spin vs skip golden equivalence
// ---------------------------------------------------------------------

TEST(EngineModes, EveryWorkloadMatchesSpinUnderSkip)
{
    for (Workload w : kAllLoads) {
        const unsigned p = cellsFor(w);
        RunOut spin =
            runWorkload(w, p, EngineMode::Spin, false, Faults::None);
        RunOut got =
            runWorkload(w, p, EngineMode::Skip, false, Faults::None);
        EXPECT_EQ(spin.cycles, got.cycles) << workloadName(w);
        EXPECT_EQ(spin.statsJson, got.statsJson) << workloadName(w);
    }
}

TEST(EngineModes, FaultedRunsMatchUnderSkip)
{
    // Injected flips, hangs and memory-latency spikes exercise every
    // wake-before-mutation hook; the stats JSON (fault counters,
    // recovery actions, sampled series) must not depend on the mode.
    // Untraced, so the skip run really sleeps and wakes through them.
    struct Case
    {
        Workload w;
        Faults faults;
    };
    const Case cases[] = {{Workload::MatUpdate, Faults::Corrected},
                          {Workload::Trmm, Faults::CorrectedEarly},
                          {Workload::Syrk, Faults::CorrectedEarly}};
    for (const Case &c : cases) {
        const unsigned p = cellsFor(c.w);
        RunOut spin = runWorkload(c.w, p, EngineMode::Spin, false,
                                  c.faults);
        RunOut got = runWorkload(c.w, p, EngineMode::Skip, false,
                                 c.faults);
        EXPECT_EQ(spin.cycles, got.cycles) << workloadName(c.w);
        EXPECT_EQ(spin.statsJson, got.statsJson) << workloadName(c.w);
        EXPECT_GT(got.fastForwards, 0u) << workloadName(c.w);
        // A plan that never bites covers nothing.
        RunOut clean = runWorkload(c.w, p, EngineMode::Spin, false,
                                   Faults::None);
        EXPECT_NE(spin.cycles, clean.cycles) << workloadName(c.w);
    }

    // The traced event stream under the same faults.
    RunOut spin = runWorkload(Workload::MatUpdate, 4, EngineMode::Spin,
                              true, Faults::Corrected);
    RunOut got = runWorkload(Workload::MatUpdate, 4, EngineMode::Skip,
                             true, Faults::Corrected);
    EXPECT_EQ(spin.cycles, got.cycles);
    EXPECT_EQ(spin.statsJson, got.statsJson);
    expectSameEvents(spin.events, got.events, "faulted");

    // Unprotected hangs landing inside deferred burst windows (the
    // untraced skip run bursts): the woken burster's replay must stop
    // exactly where the fault freezes it.
    for (Workload w : {Workload::MatUpdate, Workload::Conv}) {
        const unsigned p = cellsFor(w);
        RunOut ref = runWorkload(w, p, EngineMode::Spin, false,
                                 Faults::Unprotected);
        RunOut sk = runWorkload(w, p, EngineMode::Skip, false,
                                Faults::Unprotected);
        EXPECT_EQ(ref.cycles, sk.cycles) << workloadName(w);
        EXPECT_EQ(ref.statsJson, sk.statsJson) << workloadName(w);
        EXPECT_GT(sk.bursts, 0u) << workloadName(w);
    }
}

TEST(EngineModes, SamplerSeriesIsPresentAndModeIndependent)
{
    // The periodic sampler must fire on the same engine cycles in
    // both modes (observesSystemAt forces a full catch-up first), so
    // the sampled series is part of the byte-identical contract.
    RunOut spin = runWorkload(Workload::Lu, 2, EngineMode::Spin, false,
                              Faults::None);
    ASSERT_NE(spin.statsJson.find("\"samples\""), std::string::npos);
    RunOut got = runWorkload(Workload::Lu, 2, EngineMode::Skip, false,
                             Faults::None);
    EXPECT_EQ(spin.statsJson, got.statsJson);
}

// ---------------------------------------------------------------------
// Mode-specific behaviour
// ---------------------------------------------------------------------

TEST(EngineModes, TracedRunsTickEveryCycle)
{
    // A cycle trace is a per-cycle record of the machine: a traced run
    // takes the spin loop whatever the mode, so a Skip-configured
    // traced run neither sleeps, jumps nor bursts, and reproduces the
    // spin event ORDER, not just the same multiset of events.
    for (Workload w : {Workload::Lu, Workload::MatUpdate}) {
        RunOut spin =
            runWorkload(w, 4, EngineMode::Spin, true, Faults::None);
        RunOut sk = runWorkload(w, 4, EngineMode::Skip, true, Faults::None);
        EXPECT_EQ(sk.fastForwards, 0u) << workloadName(w);
        EXPECT_EQ(sk.skippedCycles, 0u) << workloadName(w);
        EXPECT_EQ(sk.bursts, 0u) << workloadName(w);
        EXPECT_EQ(spin.cycles, sk.cycles) << workloadName(w);
        expectSameEvents(spin.events, sk.events, workloadName(w));
    }
}

TEST(EngineModes, SkipModeSleepsOnStallHeavyRuns)
{
    // LU quiesces the whole system at every pivot step; per-component
    // sleeping and the all-asleep jump must engage there or the skip
    // scheduler is dead code.
    RunOut sk = runWorkload(Workload::Lu, 1, EngineMode::Skip, false,
                            Faults::None);
    EXPECT_GT(sk.fastForwards, 0u);
    EXPECT_GT(sk.skippedCycles, 0u);
    EXPECT_LE(sk.skippedCycles, sk.cycles);
}

// ---------------------------------------------------------------------
// Superop fast tier: on vs off byte-identity
// ---------------------------------------------------------------------
//
// The fast tier is a pure wall-clock optimization: with it on or off,
// cycles, stats JSON (sampled series included) and trace streams must
// be byte-identical in both engine modes. fastForwards/skippedCycles
// are engine diagnostics and legitimately differ — never compare them
// across tier settings.

TEST(FastTier, OnMatchesOffInEveryModeEveryWorkload)
{
    for (Workload w : kAllLoads) {
        const unsigned p = cellsFor(w);
        for (EngineMode m : kModes) {
            RunOut off = runWorkload(w, p, m, false, Faults::None, false);
            RunOut on = runWorkload(w, p, m, false, Faults::None, true);
            EXPECT_EQ(off.cycles, on.cycles)
                << workloadName(w) << " mode=" << sim::engineModeName(m);
            EXPECT_EQ(off.statsJson, on.statsJson)
                << workloadName(w) << " mode=" << sim::engineModeName(m);
        }
    }
}

TEST(FastTier, TracedRunsMatchOnVsOffInEveryMode)
{
    // A traced run ticks every cycle and never bursts, but the flag
    // must still be inert: identical cycles, stats and event ORDER
    // either way.
    for (EngineMode m : kModes) {
        RunOut off = runWorkload(Workload::MatUpdate, 4, m, true,
                                 Faults::None, false);
        RunOut on = runWorkload(Workload::MatUpdate, 4, m, true,
                                Faults::None, true);
        EXPECT_EQ(off.cycles, on.cycles)
            << "mode=" << sim::engineModeName(m);
        EXPECT_EQ(off.statsJson, on.statsJson)
            << "mode=" << sim::engineModeName(m);
        std::string what =
            std::string("traced tier mode=") + sim::engineModeName(m);
        expectSameEvents(off.events, on.events, what.c_str());
    }
}

TEST(FastTier, FaultedRunsMatchOnVsOffInEveryMode)
{
    // Active fault plans are the hard case: armed faults must refuse
    // streaming, and every hang or reset must wake a deferred burster
    // and freeze it at exactly the fault's cycle — or the faulted
    // timeline diverges between tier settings. Corrected faults run
    // with parity on (no burst is granted); unprotected hangs and
    // memory spikes leave parity off, so they land inside windows.
    struct Case
    {
        Workload w;
        Faults faults;
    };
    const Case cases[] = {{Workload::MatUpdate, Faults::Corrected},
                          {Workload::MatUpdate, Faults::Unprotected},
                          {Workload::Conv, Faults::Unprotected}};
    for (const Case &c : cases) {
        const unsigned p = cellsFor(c.w);
        for (EngineMode m : kModes) {
            RunOut off = runWorkload(c.w, p, m, false, c.faults, false);
            RunOut on = runWorkload(c.w, p, m, false, c.faults, true);
            std::string what = std::string(workloadName(c.w))
                               + " faults=" + std::to_string(int(c.faults))
                               + " mode=" + sim::engineModeName(m);
            EXPECT_EQ(off.cycles, on.cycles) << what;
            EXPECT_EQ(off.statsJson, on.statsJson) << what;
        }
    }
}

TEST(FastTier, FaultedTracedRunsMatchOnVsOff)
{
    // Tracing plus faults: a traced run never bursts while the fault
    // machinery runs — stats, cycles and the full event stream must be
    // identical on vs off.
    RunOut off = runWorkload(Workload::MatUpdate, 4, EngineMode::Skip,
                             true, Faults::Corrected, false);
    RunOut on = runWorkload(Workload::MatUpdate, 4, EngineMode::Skip,
                            true, Faults::Corrected, true);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.statsJson, on.statsJson);
    expectSameEvents(off.events, on.events, "faulted traced tier");
}

TEST(FastTier, BurstsEngageOnSteadyStreamingLoops)
{
    // The tier must actually fire on its target workload (untraced
    // streaming matrix update) or the whole fast path is dead code.
    RunOut on = runWorkload(Workload::MatUpdate, 1, EngineMode::Skip,
                            false, Faults::None, true);
    EXPECT_GT(on.bursts, 0u);
    RunOut off = runWorkload(Workload::MatUpdate, 1, EngineMode::Skip,
                             false, Faults::None, false);
    EXPECT_EQ(off.bursts, 0u);
}

TEST(FastTier, BurstsEngageWhileTheHostStreams)
{
    // Host-paced conv2d: the host pushes a bus word every tau cycles
    // for the whole run, so no machine-wide quiet window ever exists.
    // Cells must still burst their chained-FMA passes individually.
    RunOut on = runWorkload(Workload::Conv, 16, EngineMode::Skip, false,
                            Faults::None, true);
    EXPECT_GT(on.bursts, 0u);
    RunOut spin = runWorkload(Workload::Conv, 16, EngineMode::Spin,
                              false, Faults::None, true);
    EXPECT_EQ(spin.bursts, 0u);
}

// ---------------------------------------------------------------------
// Occupancy pinned to per-round sampling
// ---------------------------------------------------------------------
//
// Every engine mode and tier shares one occupancy rule (the queues
// credit it at count changes), so the identity suites above would
// pass a uniformly wrong rule. These pins were recorded from the
// model that sampled every local queue once per simulated round in
// every tier: the digest of all cells' sum/ret/reby {min,max,mean,
// count} objects and their summed sample count.

namespace
{

struct PinnedOccupancy
{
    Workload w;
    Faults faults;
    std::uint64_t digest;
    std::uint64_t samples;
};

const PinnedOccupancy kOccupancyPins[] = {
    {Workload::MatUpdate, Faults::None, 0x860d3f41110e8d32ull, 112440},
    {Workload::MatUpdate, Faults::Corrected, 0x6426b68e994dca75ull, 126468},
    {Workload::MatUpdate, Faults::Unprotected, 0x64bf4bd5930597dfull, 133356},
    {Workload::Lu, Faults::None, 0x017761b215970883ull, 65448},
    {Workload::Lu, Faults::Corrected, 0xc7f4baf93b6f368cull, 67176},
    {Workload::Lu, Faults::Unprotected, 0x48ef2571ddec96e0ull, 87420},
    {Workload::Trmm, Faults::None, 0x4c38feee0ae2739dull, 55224},
    {Workload::Trmm, Faults::Corrected, 0x4c38feee0ae2739dull, 55224},
    {Workload::Trmm, Faults::Unprotected, 0x081ccc7a94134c58ull, 74760},
    {Workload::Syrk, Faults::None, 0x67102ddb6a389e4dull, 62040},
    {Workload::Syrk, Faults::Corrected, 0x67102ddb6a389e4dull, 62040},
    {Workload::Syrk, Faults::Unprotected, 0xa385fa3ac681984full, 81492},
    {Workload::Conv, Faults::None, 0xcba80247429e36f6ull, 1396272},
    {Workload::Conv, Faults::Corrected, 0x7d31980b4c91f066ull, 1412832},
    {Workload::Conv, Faults::Unprotected, 0xbe9ab1172ba67bd9ull, 1410528},
};

} // anonymous namespace

TEST(Occupancy, MatchesPerRoundSamplingInEveryMode)
{
    // Spin never bursts, so its tier flag is inert; skip runs with the
    // tier off (sleep/wake replay only) and on (deferred bursts too).
    struct Mode
    {
        EngineMode mode;
        bool fastTier;
    };
    const Mode modes[] = {{EngineMode::Spin, true},
                          {EngineMode::Skip, false},
                          {EngineMode::Skip, true}};
    for (const PinnedOccupancy &pin : kOccupancyPins) {
        const unsigned p = cellsFor(pin.w);
        for (const Mode &m : modes) {
            RunOut out = runWorkload(pin.w, p, m.mode, false, pin.faults,
                                     m.fastTier);
            const test::OccupancyPin got =
                test::localOccupancy(out.statsJson, p);
            EXPECT_TRUE(got.digest == pin.digest
                        && got.samples == pin.samples)
                << workloadName(pin.w) << " faults=" << int(pin.faults)
                << " mode=" << sim::engineModeName(m.mode)
                << " tier=" << (m.fastTier ? "on" : "off") << ": got 0x"
                << std::hex << got.digest << std::dec << ", "
                << got.samples << " samples\n"
                << got.objects;
        }
    }
}

TEST(EngineModes, ParseAndNameRoundTrip)
{
    for (EngineMode m : kModes) {
        EngineMode back;
        ASSERT_TRUE(sim::parseEngineMode(sim::engineModeName(m), back));
        EXPECT_EQ(m, back);
    }
    EngineMode out;
    EXPECT_FALSE(sim::parseEngineMode("warp", out));
    EXPECT_FALSE(sim::parseEngineMode("event", out));
    EXPECT_FALSE(sim::parseEngineMode("parallel", out));
    EXPECT_FALSE(sim::parseEngineMode("", out));
}
