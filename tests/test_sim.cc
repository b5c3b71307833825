/**
 * @file
 * Tests for the cycle-driven engine: ordering, completion, watchdog,
 * and the deferred-burst protocol on synthetic components.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "sim/engine.hh"

using namespace opac;
using namespace opac::sim;

namespace
{

/** Counts down a fixed number of cycles of "work". */
class CountdownComponent : public Component
{
  public:
    CountdownComponent(std::string name, int work)
        : Component(std::move(name)), remaining(work)
    {}

    void
    tick(Engine &engine) override
    {
        if (remaining > 0) {
            --remaining;
            engine.noteProgress();
            lastTick = engine.now();
        }
    }

    bool done() const override { return remaining == 0; }

    std::string
    statusLine() const override
    {
        return strfmt("remaining=%d", remaining);
    }

    int remaining;
    Cycle lastTick = 0;
};

/** Never finishes and never reports progress: a deadlock. */
class StuckComponent : public Component
{
  public:
    StuckComponent() : Component("stuck") {}
    void tick(Engine &) override {}
    bool done() const override { return false; }
};

/**
 * Streams a fixed number of busy cycles and grants burst windows for
 * all but its last one (done() must not change inside a window). An
 * outside agent can freeze it for a few cycles; frozen rounds are its
 * only quiescent ones.
 */
class Streamer : public Component
{
  public:
    explicit Streamer(int work) : Component("streamer"), remaining(work)
    {}

    void
    tick(Engine &engine) override
    {
        const Cycle now = engine.now();
        if (now < frozenUntil) {
            ++frozenTicks;
            return;
        }
        if (remaining > 0) {
            --remaining;
            ++busy;
            cycleSum += now;
            engine.noteProgress();
        }
    }

    bool done() const override { return remaining == 0; }

    Cycle
    nextEventAt(Cycle now) const override
    {
        return now < frozenUntil ? frozenUntil : now;
    }

    void
    fastForward(Cycle from, Cycle cycles, Engine &) override
    {
        (void)from;
        frozenTicks += cycles;
    }

    bool burstCapable() const override { return true; }

    Cycle
    burstQuantum(Cycle from) override
    {
        if (from < frozenUntil || remaining < 2)
            return 0;
        return Cycle(remaining - 1);
    }

    void
    burstRun(Cycle from, Cycle cycles, Engine &) override
    {
        for (Cycle k = 0; k < cycles; ++k)
            cycleSum += from + k;
        remaining -= int(cycles);
        busy += cycles;
    }

    /** External mutation: freeze the ticks in [now, now + d) that
     *  have not run yet. */
    void
    freeze(Cycle now, Cycle d)
    {
        wakeForMutation();
        frozenUntil = now + d;
    }

    int remaining;
    Cycle frozenUntil = 0;
    std::uint64_t busy = 0;
    std::uint64_t frozenTicks = 0;
    std::uint64_t cycleSum = 0; //!< sum of the cycles it worked in
};

/** Freezes a Streamer at fixed cycles; never reports progress. */
class Poker : public Component
{
  public:
    Poker(Streamer &target, std::vector<Cycle> at, Cycle d)
        : Component("poker"), target(target), at(std::move(at)), d(d)
    {}

    void
    tick(Engine &engine) override
    {
        if (next < at.size() && at[next] == engine.now()) {
            target.freeze(engine.now(), d);
            ++next;
        }
    }

    bool done() const override { return next == at.size(); }

    Cycle
    nextEventAt(Cycle now) const override
    {
        return next < at.size() && at[next] >= now ? at[next] : noEvent;
    }

    Streamer &target;
    std::vector<Cycle> at;
    Cycle d;
    std::size_t next = 0;
};

struct BurstRun
{
    Cycle end = 0;
    std::uint64_t idle = 0;
    std::uint64_t busy = 0;
    std::uint64_t frozen = 0;
    std::uint64_t cycleSum = 0;
    std::uint64_t bursts = 0;

    bool
    operator==(const BurstRun &o) const
    {
        return end == o.end && idle == o.idle && busy == o.busy
               && frozen == o.frozen && cycleSum == o.cycleSum;
    }
};

/**
 * Run a Streamer with a Poker freezing it inside its burst windows,
 * the Poker registered before (@p poker_first) or after it, stopping
 * at @p stop first when nonzero.
 */
BurstRun
runPoked(EngineMode mode, bool poker_first, Cycle stop)
{
    Engine e(20);
    e.setMode(mode);
    e.setFastTier(true);
    Streamer s(200);
    Poker p(s, {10, 50, 51, 120, 190}, 5);
    if (poker_first)
        e.add(&p);
    e.add(&s);
    if (!poker_first)
        e.add(&p);
    if (stop != 0)
        e.runUntil(stop);
    else
        e.run();
    BurstRun r;
    r.end = e.now();
    r.idle = e.stats().counterValue("idleCycles");
    r.busy = s.busy;
    r.frozen = s.frozenTicks;
    r.cycleSum = s.cycleSum;
    r.bursts = e.bursts();
    return r;
}

} // anonymous namespace

TEST(Engine, RunsUntilAllDone)
{
    Engine e;
    CountdownComponent a("a", 5);
    CountdownComponent b("b", 9);
    e.add(&a);
    e.add(&b);
    Cycle cycles = e.run();
    EXPECT_EQ(cycles, 9u);
    EXPECT_TRUE(a.done());
    EXPECT_TRUE(b.done());
    EXPECT_TRUE(e.allDone());
}

TEST(Engine, NowAdvancesWithCycles)
{
    Engine e;
    CountdownComponent a("a", 3);
    e.add(&a);
    e.run();
    EXPECT_EQ(e.now(), 3u);
    EXPECT_EQ(a.lastTick, 2u); // last productive tick at cycle 2
}

TEST(Engine, SecondRunContinuesClock)
{
    Engine e;
    CountdownComponent a("a", 2);
    e.add(&a);
    e.run();
    a.remaining = 3;
    Cycle more = e.run();
    EXPECT_EQ(more, 3u);
    EXPECT_EQ(e.now(), 5u);
}

TEST(Engine, WatchdogDetectsDeadlock)
{
    Engine e(50);
    StuckComponent s;
    e.add(&s);
    try {
        e.run();
        FAIL() << "expected watchdog to fire";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("deadlock"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("stuck"),
                  std::string::npos);
    }
}

TEST(Engine, MaxCyclesBoundsRun)
{
    Engine e;
    CountdownComponent a("a", 1000);
    e.add(&a);
    EXPECT_THROW(e.run(10), std::runtime_error);
}

TEST(Engine, EmptyEngineIsDone)
{
    Engine e;
    EXPECT_EQ(e.run(), 0u);
}

TEST(Engine, StatusDumpListsComponents)
{
    Engine e;
    CountdownComponent a("alpha", 2);
    e.add(&a);
    std::string dump = e.statusDump();
    EXPECT_NE(dump.find("alpha"), std::string::npos);
    EXPECT_NE(dump.find("remaining=2"), std::string::npos);
}

TEST(Engine, DeferredBurstsMatchSpinWhenMutatedMidWindow)
{
    // A deferred burster frozen by a neighbor inside its window must
    // replay exactly the rounds it ran before the freeze — including
    // the current round when it ticks before the neighbor — and every
    // covered round must count as progress, so idle cycles and the end
    // cycle match the per-cycle reference in either slot order.
    for (bool poker_first : {false, true}) {
        BurstRun spin = runPoked(EngineMode::Spin, poker_first, 0);
        BurstRun skip = runPoked(EngineMode::Skip, poker_first, 0);
        EXPECT_TRUE(spin == skip) << "poker_first=" << poker_first
                                  << " end " << spin.end << " vs "
                                  << skip.end << ", idle " << spin.idle
                                  << " vs " << skip.idle;
        EXPECT_EQ(spin.bursts, 0u);
        EXPECT_GT(skip.bursts, 1u);
        EXPECT_GT(spin.idle, 0u);
    }
}

TEST(Engine, RunUntilInsideADeferredWindowMaterializesItsPrefix)
{
    // Cycle 30 lies inside the window granted after the first freeze
    // ends; the stop must leave the burster exactly where the spin
    // run has it.
    for (bool poker_first : {false, true}) {
        for (Cycle stop : {Cycle(30), Cycle(51), Cycle(100)}) {
            BurstRun spin = runPoked(EngineMode::Spin, poker_first, stop);
            BurstRun skip = runPoked(EngineMode::Skip, poker_first, stop);
            EXPECT_EQ(skip.end, stop);
            EXPECT_TRUE(spin == skip)
                << "poker_first=" << poker_first << " stop=" << stop;
        }
    }
}
