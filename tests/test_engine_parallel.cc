/**
 * @file
 * Golden-equivalence suite for the engine modes: the per-component
 * skip scheduler must produce results bit-identical to the spin
 * reference — same cycle count, same statistics JSON (including the
 * sampled time series), same memory image, same trace event stream —
 * on every workload of the golden catalogue (the linear-algebra
 * kernels at P = 4, a host-streaming conv2d at P = 16, tau = 4), with
 * and without active fault injection, with the superop fast tier on
 * or off. Runs and comparisons come from the golden harness.
 */

#include <gtest/gtest.h>

#include <string>

#include "golden.hh"

using namespace opac;
using namespace opac::test::golden;
using sim::EngineMode;

namespace
{

const EngineMode kModes[] = {EngineMode::Spin, EngineMode::Skip};

} // anonymous namespace

// ---------------------------------------------------------------------
// Spin vs skip golden equivalence
// ---------------------------------------------------------------------

TEST(EngineModes, EveryWorkloadMatchesSpinUnderSkip)
{
    for (Workload w : kWorkloads)
        check(RunSpec(w).in(EngineMode::Skip));
}

TEST(EngineModes, FaultedRunsMatchUnderSkip)
{
    // Injected flips, hangs and memory-latency spikes exercise every
    // wake-before-mutation hook; the stats JSON (fault counters,
    // recovery actions, sampled series) must not depend on the mode.
    // Untraced, so the skip run really sleeps and wakes through them.
    // The Recovery plan adds bus drops and duplicates, halts and live
    // transaction timeouts and retries on the two-cell fault mix:
    // skipping must neither miss an injection nor shift a timeout.
    const RunSpec cases[] = {
        RunSpec(Workload::MatUpdate, Plan::Corrected),
        RunSpec(Workload::Trmm, Plan::CorrectedEarly),
        RunSpec(Workload::Syrk, Plan::CorrectedEarly),
        RunSpec(Workload::FaultMix, Plan::Recovery),
    };
    for (const RunSpec &r : cases) {
        const RunOut &got = check(r.in(EngineMode::Skip));
        EXPECT_GT(got.fastForwards, 0u) << r.name();
        // A plan that never bites covers nothing.
        const RunOut &clean = run(RunSpec(r.load, r.shape));
        EXPECT_NE(run(r).cycles, clean.cycles) << r.name();
        if (r.plan == Plan::Recovery) {
            EXPECT_GT(counter(run(r), "system.host.txnTimeouts"), 0u)
                << r.name();
            EXPECT_GT(counter(run(r), "system.host.txnRetries"), 0u)
                << r.name();
            // Retry and replay end in the fault-free result.
            EXPECT_EQ(run(r).memSum, clean.memSum) << r.name();
        }
    }

    // Unprotected hangs landing inside deferred burst windows (the
    // untraced skip run bursts): the woken burster's replay must stop
    // exactly where the fault freezes it.
    for (Workload w : {Workload::MatUpdate, Workload::Conv}) {
        const RunSpec r = RunSpec(w, Plan::Unprotected).in(EngineMode::Skip);
        EXPECT_GT(check(r).bursts, 0u) << r.name();
    }
}

TEST(EngineModes, SamplerSeriesIsPresentAndModeIndependent)
{
    // The periodic sampler must fire on the same engine cycles in
    // both modes (observesSystemAt forces a full catch-up first), so
    // the sampled series is part of the byte-identical contract.
    const RunSpec lu(Workload::Lu, {2, 256, 2});
    ASSERT_NE(run(lu).statsJson.find("\"samples\""), std::string::npos);
    check(lu.in(EngineMode::Skip));
}

// ---------------------------------------------------------------------
// Mode-specific behaviour
// ---------------------------------------------------------------------

TEST(EngineModes, TracedRunsTickEveryCycle)
{
    // A cycle trace is a per-cycle record of the machine: a traced run
    // takes the spin loop whatever the mode and tier, so a traced run
    // neither sleeps, jumps nor bursts, and reproduces the spin event
    // ORDER, not just the same multiset of events. Covers the
    // Skip-configured runs of both default-shape linear-algebra
    // kernels and of a P = 2, tau = 4 machine, tier off in both modes,
    // and a faulted run with the tier on and off.
    const Shape p2tau4{2, 256, 4};
    const RunSpec cases[] = {
        RunSpec(Workload::Lu).in(EngineMode::Skip),
        RunSpec(Workload::MatUpdate).in(EngineMode::Skip),
        RunSpec(Workload::Lu, p2tau4).in(EngineMode::Skip),
        RunSpec(Workload::MatUpdate, p2tau4).in(EngineMode::Skip),
        RunSpec(Workload::MatUpdate).in(EngineMode::Spin, false),
        RunSpec(Workload::MatUpdate).in(EngineMode::Skip, false),
        RunSpec(Workload::MatUpdate, Plan::Corrected).in(EngineMode::Skip),
        RunSpec(Workload::MatUpdate, Plan::Corrected)
            .in(EngineMode::Skip, false),
    };
    for (const RunSpec &c : cases) {
        const RunSpec r = c.withTrace();
        const RunOut &got = check(r);
        EXPECT_FALSE(got.events.empty()) << r.name();
        EXPECT_EQ(got.fastForwards, 0u) << r.name();
        EXPECT_EQ(got.skippedCycles, 0u) << r.name();
        EXPECT_EQ(got.bursts, 0u) << r.name();
    }
}

TEST(EngineModes, SkipModeSleepsOnStallHeavyRuns)
{
    // LU quiesces the whole system at every pivot step; per-component
    // sleeping and the all-asleep jump must engage there or the skip
    // scheduler is dead code.
    const RunOut &sk =
        run(RunSpec(Workload::Lu, {1, 256, 2}).in(EngineMode::Skip));
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
// be byte-identical in both engine modes. Both settings are compared
// with the spin reference, which makes them identical to each other.
// fastForwards/skippedCycles are engine diagnostics and legitimately
// differ — never compare them across tier settings.

TEST(FastTier, OnMatchesOffInEveryModeEveryWorkload)
{
    for (Workload w : kWorkloads) {
        for (EngineMode m : kModes) {
            for (bool tier : {false, true})
                check(RunSpec(w).in(m, tier));
        }
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
    const RunSpec cases[] = {RunSpec(Workload::MatUpdate, Plan::Corrected),
                         RunSpec(Workload::MatUpdate, Plan::Unprotected),
                         RunSpec(Workload::Conv, Plan::Unprotected)};
    for (const RunSpec &r : cases) {
        for (EngineMode m : kModes) {
            for (bool tier : {false, true})
                check(r.in(m, tier));
        }
    }
}

TEST(FastTier, BurstsEngageOnSteadyStreamingLoops)
{
    // The tier must actually fire on its target workload (untraced
    // streaming matrix update) or the whole fast path is dead code.
    const RunSpec mu(Workload::MatUpdate, {1, 256, 2});
    EXPECT_GT(run(mu.in(EngineMode::Skip, true)).bursts, 0u);
    EXPECT_EQ(run(mu.in(EngineMode::Skip, false)).bursts, 0u);
}

TEST(FastTier, BurstsEngageWhileTheHostStreams)
{
    // Host-paced conv2d: the host pushes a bus word every tau cycles
    // for the whole run, so no machine-wide quiet window ever exists.
    // Cells must still burst their chained-FMA passes individually.
    const RunSpec conv(Workload::Conv);
    EXPECT_GT(run(conv.in(EngineMode::Skip)).bursts, 0u);
    EXPECT_EQ(run(conv).bursts, 0u);
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
    Plan plan;
    std::uint64_t digest;
    std::uint64_t samples;
};

const PinnedOccupancy kOccupancyPins[] = {
    {Workload::MatUpdate, Plan::None, 0x860d3f41110e8d32ull, 112440},
    {Workload::MatUpdate, Plan::Corrected, 0x6426b68e994dca75ull, 126468},
    {Workload::MatUpdate, Plan::Unprotected, 0x64bf4bd5930597dfull, 133356},
    {Workload::Lu, Plan::None, 0x017761b215970883ull, 65448},
    {Workload::Lu, Plan::Corrected, 0xc7f4baf93b6f368cull, 67176},
    {Workload::Lu, Plan::Unprotected, 0x48ef2571ddec96e0ull, 87420},
    {Workload::Trmm, Plan::None, 0x4c38feee0ae2739dull, 55224},
    {Workload::Trmm, Plan::Corrected, 0x4c38feee0ae2739dull, 55224},
    {Workload::Trmm, Plan::Unprotected, 0x081ccc7a94134c58ull, 74760},
    {Workload::Syrk, Plan::None, 0x67102ddb6a389e4dull, 62040},
    {Workload::Syrk, Plan::Corrected, 0x67102ddb6a389e4dull, 62040},
    {Workload::Syrk, Plan::Unprotected, 0xa385fa3ac681984full, 81492},
    {Workload::Conv, Plan::None, 0xcba80247429e36f6ull, 1396272},
    {Workload::Conv, Plan::Corrected, 0x7d31980b4c91f066ull, 1412832},
    {Workload::Conv, Plan::Unprotected, 0xbe9ab1172ba67bd9ull, 1410528},
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
        for (const Mode &m : modes) {
            const RunSpec r = RunSpec(pin.w, pin.plan).in(m.mode, m.fastTier);
            const test::OccupancyPin &got = run(r).occupancy;
            EXPECT_TRUE(got.digest == pin.digest
                        && got.samples == pin.samples)
                << r.name() << ": got 0x" << std::hex << got.digest
                << std::dec << ", " << got.samples << " samples\n"
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
