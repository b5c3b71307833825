/**
 * @file
 * Cycle-driven simulation engine.
 *
 * All OPAC components (host, bus, cells) advance in lock step on a common
 * clock, which matches the synchronous prototype. Components are ticked in
 * registration order every cycle; cross-component visibility is one cycle
 * (a FIFO word pushed in cycle t becomes poppable in a later cycle), so
 * results do not depend on tick order.
 *
 * A watchdog aborts the run with a per-component status dump when no
 * component reports progress for a configurable number of cycles — FIFO
 * protocol deadlocks (host and cell each waiting on the other) are the
 * characteristic failure mode of this architecture, and silent hangs are
 * useless.
 *
 * The engine has two run modes, bit-identical in simulated cycles,
 * statistics and trace output (EngineMode):
 *
 *  - Spin: tick every component every cycle. The reference model the
 *          golden tests compare against; it never bursts.
 *  - Skip: per-component scheduling (the default). A component that
 *          reports no progress for two consecutive rounds is put to
 *          sleep until its own nextEventAt hint — individually, even
 *          while the rest of the machine streams. Slept-through rounds
 *          are replayed lazily (fastForward) when the component wakes:
 *          at its hint, or early when a neighbor is about to mutate
 *          one of its FIFOs (Component::wakeForMutation, called before
 *          the mutation so the replay still sees the state the sleep
 *          hint was computed against). When every component is asleep
 *          the clock jumps straight to the earliest wake-up.
 *
 * Superop bursts (fast tier on, Skip mode) are the busy-side mirror of
 * sleep, scheduled the same way. After a round in which a component
 * progressed, the engine asks it for a burstQuantum: a count of
 * upcoming rounds it is guaranteed to progress in while touching
 * nothing another component reads (for a cell: a dense chained-FMA
 * loop window). A granted component is parked as a *deferred burster*
 * and its rounds are executed in bulk (burstRun) whenever they must
 * become visible — at the window's end, on a neighbor's
 * wakeForMutation, before an observer ticks, at a runUntil stop or an
 * abort — while every other component keeps ticking live. Rounds a
 * deferred burster covers count as progress, so idle-cycle and
 * watchdog accounting stay exactly those of the spin run.
 *
 * A run with a tracer attached takes the Spin loop whatever the mode:
 * a cycle trace is a per-cycle record of the machine, so its natural
 * producer is the loop that ticks every component every cycle, and
 * events reach the sinks in serial order as they are emitted.
 */

#ifndef OPAC_SIM_ENGINE_HH
#define OPAC_SIM_ENGINE_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace opac::trace
{
class Tracer;
}

namespace opac::snap
{
class Writer;
class Reader;
} // namespace opac::snap

namespace opac::sim
{

class Engine;

/** How Engine::run() advances the clock. Both modes are bit-identical. */
enum class EngineMode
{
    Spin, //!< tick everything every cycle (reference model)
    Skip, //!< per-component sleep/wake scheduling (default)
};

/** Lower-case mode name as used on --engine= command lines. */
const char *engineModeName(EngineMode m);

/** Parse an --engine= value; returns false on an unknown name. */
bool parseEngineMode(const std::string &text, EngineMode &out);

/** Anything that advances once per clock cycle. */
class Component
{
  public:
    explicit Component(std::string name) : _name(std::move(name)) {}
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** The hint value meaning "I only ever react to other components". */
    static constexpr Cycle noEvent = cycleNever;

    /** Advance one cycle. Call Engine::noteProgress() if work was done. */
    virtual void tick(Engine &engine) = 0;

    /** True once this component has nothing left to do. */
    virtual bool done() const = 0;

    /**
     * Earliest future cycle at which this component could act on its
     * own, assuming no other component does anything before then:
     * a FIFO front falling through, a countdown (decode, host
     * cooldown, scalar compute) expiring, an FP pipeline result
     * landing. Only consulted after a tick round with no progress.
     * Return `now` when the wake-up cannot be predicted (keeps this
     * component awake — the safe default), or noEvent when this
     * component only waits on others.
     */
    virtual Cycle nextEventAt(Cycle now) const { return now; }

    /**
     * Replay the per-cycle side effects of @p cycles quiescent tick
     * rounds starting at cycle @p from: everything tick() would have
     * done in each of those rounds given that none of them can make
     * progress (stall/busy counters, countdown decrements). The engine
     * guarantees from + cycles <= this component's nextEventAt hint,
     * so the slept rounds are copies of each other: each one is the
     * round at @p from, evaluated on the state the last tick left
     * behind. They need not be copies of that last ticked round — a
     * component may fall asleep straight out of a countdown round
     * into a stall (the host at tau = 3) — so replay by the state,
     * not by what the last tick counted. Never called with a tracer
     * attached (traced runs tick every cycle), so replayed rounds
     * emit no trace events.
     */
    virtual void fastForward(Cycle from, Cycle cycles)
    {
        (void)from;
        (void)cycles;
    }

    /**
     * True when this component may ever grant a burstQuantum. Polled
     * once at run entry, so components that never burst pay no
     * per-tick poll; only those answering true are asked for a
     * quantum (after each round in which they progressed).
     */
    virtual bool burstCapable() const { return false; }

    /**
     * Superop fast tier: the number q of rounds, starting with the
     * round at cycle @p from, that this component can defer and later
     * execute in bulk. 0 (the default and the common case) means
     * "cannot burst". Asked right after a live tick at from - 1 that
     * progressed. A positive quantum promises three things:
     *  - the component would report progress in each of the rounds
     *    [from, from + q) had it ticked them live;
     *  - none of those rounds writes state another component reads
     *    (nor changes done(), which the engine reads every round);
     *  - burstRun() replays any prefix of the window byte-exactly,
     *    also in several consecutive calls.
     * The engine then stops ticking the component and replays its
     * rounds lazily — at the end of the window, before another agent
     * mutates it (wakeForMutation), before an observer ticks, and at
     * a run stop or abort. Only consulted by the Skip loop with the
     * engine's fast tier on, so never while a tracer is attached.
     */
    virtual Cycle burstQuantum(Cycle from)
    {
        (void)from;
        return 0;
    }

    /**
     * Execute @p cycles deferred rounds in bulk starting at cycle
     * @p from, continuing the window a preceding burstQuantum()
     * granted (from is the window start or the end of the previous
     * burstRun of the same window). Must leave every counter, FIFO
     * and architectural register exactly as @p cycles live tick()
     * rounds would have. Does not call Engine::noteProgress(): the
     * engine accounts the window's rounds as progress itself.
     */
    virtual void burstRun(Cycle from, Cycle cycles)
    {
        (void)from;
        (void)cycles;
    }

    /**
     * Bring lazily credited accounting (FIFO occupancy intervals) up
     * to cycle @p now, crediting every round before it. The engine
     * calls this on every slot whenever run() or runUntil() returns
     * or throws, in both modes, so whatever reads statistics between
     * runs (stats dumps, snapshots) sees every completed round.
     */
    virtual void settleAt(Cycle now) { (void)now; }

    /** One-line state description, used in deadlock reports. */
    virtual std::string statusLine() const { return "(no status)"; }

    /**
     * Version tag stamped on this component's saveState() payload.
     * Bump it when the payload layout changes; loadState() receives
     * the version the snapshot was written with and may translate or
     * reject old layouts.
     */
    virtual std::uint32_t stateVersion() const { return 1; }

    /**
     * Serialize every piece of mutable state a resumed run needs to
     * be bit-identical to an uninterrupted one: architectural
     * registers, queue contents, in-flight operations, countdowns,
     * fault latches. Registered statistics are saved separately
     * through the stats tree; derived caches that rebuild on demand
     * need not be saved. The default saves nothing (for stateless
     * components).
     */
    virtual void saveState(snap::Writer &w) const;

    /**
     * Restore state saved by saveState() on a freshly constructed,
     * identically configured component. @p version is the payload's
     * stateVersion() at save time. Throws opac::SnapshotError (via
     * Reader::fail) on malformed payloads.
     */
    virtual void loadState(snap::Reader &r, std::uint32_t version);

    /**
     * Next cycle >= now at which this component's tick reads OTHER
     * components' externally visible state (the stats sampler
     * snapshotting every counter in the tree is the one such case).
     * The engine catches every sleeping component up before such a
     * tick so the observation matches the spin run. noEvent (the
     * default) means the tick only ever touches its own state; an
     * observer must return a finite cycle from every call, because
     * the engine identifies observers by polling once at run entry.
     */
    virtual Cycle observesSystemAt(Cycle now) const
    {
        (void)now;
        return noEvent;
    }

    /**
     * Notify the engine that some other agent is about to mutate this
     * component's externally visible state: a neighbor pushing into or
     * popping from one of its FIFOs, a fault arming, a forced reset.
     * Must be called BEFORE the mutation — the skip scheduler replays
     * the slept-through cycles first, while the pre-mutation state
     * the sleep hint was computed against still holds. No-op unless
     * the skip scheduler is active and this component is asleep.
     */
    void wakeForMutation();

    const std::string &name() const { return _name; }

  protected:
    /** The attached engine's clock; 0 before the component is added. */
    Cycle clock() const;

  private:
    friend class Engine;
    std::string _name;
    Engine *_engine = nullptr;
    unsigned _slot = 0;
};

/** The clock and run loop. */
class Engine
{
  public:
    /**
     * @param watchdog_cycles Abort after this many cycles without any
     *                        component reporting progress (0 = disabled).
     * @param parent_stats    Registry to hold the "engine" stats group.
     */
    explicit Engine(Cycle watchdog_cycles = 100000,
                    stats::StatGroup *parent_stats = nullptr)
        : watchdogCycles(watchdog_cycles),
          statGroup("engine", parent_stats)
    {
        statGroup.addCounter("cycles", &statCycles, "cycles simulated");
        statGroup.addCounter("idleCycles", &statIdleCycles,
                             "cycles in which no component progressed");
    }

    /** Register a component; it must outlive the engine. */
    void
    add(Component *c)
    {
        c->_engine = this;
        c->_slot = static_cast<unsigned>(components.size());
        components.push_back(c);
    }

    Cycle now() const { return cycle; }

    /** Components call this from tick() when they made forward
     *  progress. */
    void noteProgress() { progressed = true; }

    /**
     * Run until every component reports done(), or max_cycles elapse
     * (0 = unbounded). Returns the number of cycles simulated. Throws on
     * watchdog expiry with a full component status dump. Every exit,
     * returned or thrown, calls Component::settleAt(now()) on every
     * slot.
     */
    Cycle run(Cycle max_cycles = 0);

    /**
     * Run until the clock reaches @p stop (or everything is done,
     * whichever comes first) and return the cycles simulated. The
     * machine is left in exactly the state a run() would pass through
     * at cycle @p stop — counters settled, slept rounds replayed — so
     * it can be snapshotted and the run continued (by run() or
     * another runUntil()) with byte-identical results. The idle-time
     * baseline the watchdog and sleep hysteresis derive from is
     * carried across the boundary (idleCarry_), so deadlock expiry
     * and jump decisions land on the same cycles as an uninterrupted
     * run.
     */
    Cycle runUntil(Cycle stop, Cycle max_cycles = 0);

    /**
     * Serialize the engine-level mutable state (the clock and the
     * carried idle baseline). Registered stats (cycles/idleCycles)
     * travel with the stats tree; scheduler scratch (sleep lists,
     * deferred bursts) re-initializes at run entry and is deliberately
     * not saved — both modes are byte-identical, so a resumed run may
     * even switch modes.
     */
    void saveState(snap::Writer &w) const;
    void loadState(snap::Reader &r);

    /** True when every registered component is done. */
    bool allDone() const;

    /**
     * Status dump of every component (used in error reports). When a
     * tracer is attached, the last few trace events of every component
     * are appended, so a deadlock report shows not just where each
     * component is stuck but what it last did.
     */
    std::string statusDump() const;

    /**
     * Attach the trace recorder consulted by error reports. The engine
     * emits no events itself, but while one is attached run() takes
     * the Spin loop whatever the mode; pass nullptr to detach.
     */
    void setTracer(trace::Tracer *t) { _tracer = t; }
    trace::Tracer *tracer() const { return _tracer; }

    /** The engine's statistics subtree. */
    stats::StatGroup &stats() { return statGroup; }

    /**
     * Install a non-fatal watchdog callback. When the watchdog
     * expires the handler runs first: returning true claims the
     * expiry (the idle counter restarts and the run continues —
     * the recovery path uses this to force a host-side transaction
     * retry), returning false falls through to the fatal
     * DeadlockError. Pass nullptr to restore fatal-only behavior.
     */
    using WatchdogHandler = std::function<bool(Engine &)>;
    void setWatchdogHandler(WatchdogHandler h)
    {
        watchdogHandler = std::move(h);
    }

    /**
     * Select the run mode (default Skip). Results are bit-identical
     * in both modes; Spin is the debugging escape hatch and the
     * reference the golden-equivalence suite compares against.
     */
    void setMode(EngineMode m) { _mode = m; }
    EngineMode mode() const { return _mode; }

    /**
     * Enable the superop fast tier (default off at the engine level;
     * the coprocessor turns it on from its config). When on, the Skip
     * run loop defers the rounds of a burstCapable() component that
     * grants a burstQuantum() and executes them in bulk later, while
     * the rest of the machine keeps ticking. Spin mode never bursts —
     * it stays the pure per-cycle reference — and a traced run spins,
     * so it never bursts either; every output stays
     * byte-identical with the tier on or off.
     */
    void setFastTier(bool on) { fastTier_ = on; }
    bool fastTierEnabled() const { return fastTier_; }

    /**
     * Skip diagnostics. Deliberately NOT registered as statistics:
     * the stats JSON must be identical between spin and skip modes.
     * fastForwards() counts the lazy replays of sleeping components;
     * skippedCycles() counts the clock cycles the engine jumped while
     * every component was asleep, so it never exceeds the cycles
     * simulated.
     */
    std::uint64_t fastForwards() const { return _fastForwards; }
    std::uint64_t skippedCycles() const { return _skippedCycles; }

    /**
     * Fast-tier diagnostics, unregistered for the same reason: burst
     * engagement depends on the run mode, the stats JSON must not.
     * burstAttempts() counts burstQuantum() polls (one per progressing
     * round of a burst-capable component), bursts() the windows they
     * granted, burstCycles() the deferred rounds executed by
     * burstRun() (a window cut short by a mutation counts only its
     * executed prefix).
     */
    std::uint64_t burstAttempts() const { return _burstAttempts; }
    std::uint64_t bursts() const { return _bursts; }
    std::uint64_t burstCycles() const { return _burstCycles; }

  private:
    friend class Component;

    /** The per-cycle reference loop (Spin mode). */
    Cycle runSpin(Cycle max_cycles);
    /** The per-component sleep/wake scheduler (Skip mode). */
    Cycle runSkip(Cycle max_cycles);

    /** Abort with max_cycles exceeded once a run reaches its cap. */
    void checkMaxCycles(Cycle start, Cycle max_cycles);
    /**
     * Watchdog expiry: a recovery handler may claim it (the idle
     * count restarts); otherwise throw DeadlockError.
     */
    void watchdogExpired();
    /**
     * Bring sleeping components' counters up to date, so an abort
     * report reads exactly like the spin run.
     */
    void settle();

    /**
     * Skip-mode wake entry point (from Component::wakeForMutation).
     * Hot-path guard inline; the replay lives in the scheduler TU.
     */
    void
    wakeComponent(unsigned slot)
    {
        if (!skipActive_ || !sleep_[slot].asleep)
            return;
        wakeComponentSlow(slot);
    }
    void wakeComponentSlow(unsigned slot);

    /**
     * Replay a sleeping slot's rounds [sleptFrom, upTo): fastForward
     * for a quiescent sleeper, burstRun for a deferred burster.
     */
    void replaySlot(unsigned slot, Cycle upTo);
    /** Replay a sleeping slot through round upTo - 1 and wake it. */
    void wakeSlot(unsigned slot, Cycle upTo);
    /** Replay every sleeping slot through round upTo - 1. */
    void catchUpAll(Cycle upTo);

    /** Per-slot scheduling state (Skip mode). */
    struct SleepState
    {
        Cycle wakeAt = 0;            //!< scheduled wake-up cycle
        Cycle sleptFrom = 0;         //!< first round not yet replayed
        std::uint32_t idleTicks = 0; //!< consecutive no-progress ticks
        bool asleep = false;
        /** Asleep on a deferred burst window (wakeAt = its end), not
         *  on a quiescent hint: its rounds are all progress. */
        bool burst = false;
        bool burster = false;        //!< polled for burst quanta
        bool observer = false;       //!< overrides observesSystemAt
    };

    std::vector<Component *> components;
    Cycle cycle = 0;
    /**
     * Early-stop deadline for runUntil(): every run loop breaks when
     * the clock reaches it, and every all-asleep jump is clamped to it
     * so the stop lands on the exact cycle. cycleNever when a plain
     * run() is active.
     */
    Cycle stopAt_ = cycleNever;
    /**
     * Cycles of idleness (cycle - lastProgress) carried across a
     * runUntil() boundary. Run loops normally reset their idle
     * baseline at entry; consuming this carry instead keeps watchdog
     * expiry on the same cycles as an
     * uninterrupted run. Zero after natural completion, so multi-run
     * callers (the serve shards) are unaffected.
     */
    Cycle idleCarry_ = 0;
    Cycle watchdogCycles;
    WatchdogHandler watchdogHandler;
    bool progressed = false;
    EngineMode _mode = EngineMode::Skip;
    std::vector<SleepState> sleep_;
    unsigned awake_ = 0;    //!< slots not asleep (Skip mode)
    unsigned deferred_ = 0; //!< slots asleep on a burst window
    /**
     * A mutation woke a deferred burster after its turn in the current
     * round: the replay covered this round, so it counts as progress.
     */
    bool burstWakeProgress_ = false;
    bool skipActive_ = false;
    /** Slot being ticked (wake horizons). */
    unsigned currentSlot_ = 0;
    Cycle lastProgress = 0;
    std::uint64_t _fastForwards = 0;
    std::uint64_t _skippedCycles = 0;
    bool fastTier_ = false;
    std::uint64_t _burstAttempts = 0;
    std::uint64_t _bursts = 0;
    std::uint64_t _burstCycles = 0;
    trace::Tracer *_tracer = nullptr;
    stats::StatGroup statGroup;
    stats::Counter statCycles;
    stats::Counter statIdleCycles;
};

inline Cycle
Component::clock() const
{
    return _engine ? _engine->now() : 0;
}

inline void
Component::wakeForMutation()
{
    if (_engine)
        _engine->wakeComponent(_slot);
}

} // namespace opac::sim

#endif // OPAC_SIM_ENGINE_HH
