/**
 * @file
 * Golden-equivalence suite for idle-cycle skipping: for every
 * linear-algebra workload and machine shape, a skip-mode run, with the
 * fast tier on or off, must be bit-identical to the spin-mode run —
 * same cycle count, same statistics JSON (including the sampled time
 * series), same memory image. Also covers the parallel sweep runner: a
 * multi-threaded sweep must produce exactly the results of a serial
 * one (and is the TSan target for the simulator's thread-safety
 * claims).
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/sweep.hh"

#include "golden.hh"

using namespace opac;
using namespace opac::test::golden;
using sim::EngineMode;

// ---------------------------------------------------------------------
// Skip-mode golden equivalence
// ---------------------------------------------------------------------

TEST(EngineSkip, EveryWorkloadMatchesSpinExactly)
{
    // tau = 3 is the odd host period: the host often falls asleep
    // straight out of a cooldown round into a bus stall, so the rounds
    // it replays are stall rounds, not copies of the last round it
    // ticked.
    const Shape shapes[] = {{1, 512, 2}, {4, 256, 2}, {2, 512, 4},
                            {1, 512, 3}, {4, 512, 3}};
    for (Workload w : kLinalg) {
        for (const Shape &s : shapes) {
            const RunSpec r(w, s);
            EXPECT_EQ(run(r).fastForwards, 0u) << r.name();
            for (bool tier : {true, false})
                check(r.in(EngineMode::Skip, tier));
        }
    }
}

TEST(EngineSkip, SkippingActuallyHappensOnStallHeavyRuns)
{
    // LU's pivot recurrence serializes a scale pass behind the FP
    // pipeline drain, quiescing the whole system for several cycles at
    // every step; if the engine never fast-forwards there, the feature
    // is dead code and this suite proves nothing.
    const RunOut &fast =
        run(RunSpec(Workload::Lu, {1, 512, 4}).in(EngineMode::Skip));
    EXPECT_GT(fast.fastForwards, 0u);
    EXPECT_GT(fast.skippedCycles, 0u);
}

TEST(EngineSkip, SkipDiagnosticsStayOutOfStatsJson)
{
    const RunOut &fast =
        run(RunSpec(Workload::MatUpdate, {1, 512, 4}).in(EngineMode::Skip));
    EXPECT_EQ(fast.statsJson.find("fastForward"), std::string::npos);
    EXPECT_EQ(fast.statsJson.find("skippedCycles"), std::string::npos);
}

// ---------------------------------------------------------------------
// Parallel sweep runner
// ---------------------------------------------------------------------

TEST(SweepRunner, ParallelResultsMatchSerialInOrder)
{
    // Each task runs a full simulation; the multi-threaded sweep must
    // return exactly the serial results in task order. The serial
    // sweep produces the spin references on one worker, the parallel
    // one simulates the skip runs of the same machines on four, past
    // the harness memo so that they really run concurrently. This is
    // the TSan target for the simulator's "no shared mutable state
    // between Coprocessor instances" claim.
    std::vector<RunSpec> runs;
    for (Workload w : kLinalg) {
        for (unsigned p : {1u, 2u})
            runs.push_back(RunSpec(w, {p, 256, 2}).in(EngineMode::Skip));
    }
    std::vector<std::function<RunOut()>> serialTasks, parallelTasks;
    for (const RunSpec &r : runs) {
        serialTasks.push_back([r] { return run(r.reference()); });
        parallelTasks.push_back([r] { return simulate(r); });
    }
    auto serial = sim::sweep<RunOut>(serialTasks, 1);
    auto parallel = sim::sweep<RunOut>(parallelTasks, 4);
    ASSERT_EQ(serial.size(), runs.size());
    ASSERT_EQ(parallel.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        expectSame(serial[i], parallel[i], runs[i].name());
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
