/**
 * @file
 * The Skip-mode run loop of sim::Engine (see engine.hh for the mode
 * overview) and its lazy-replay machinery.
 *
 * Invariants:
 *  - A component sleeps only on its own nextEventAt hint, which is
 *    valid "assuming no other component does anything before then".
 *    Every externally visible mutation of a component's state funnels
 *    through Component::wakeForMutation() *before* the mutation, so a
 *    sleeping component is always replayed (fastForward) against
 *    exactly the state its hint was computed from.
 *  - Replay horizons follow round order: a mutation from a slot that
 *    ticks *after* the sleeper in the current round means the sleeper
 *    would have ticked this round before seeing it (replay through the
 *    current round, next live tick next round); a mutation from an
 *    earlier slot wakes it in time to tick live this round.
 *  - Observers (Component::observesSystemAt, i.e. the stats sampler)
 *    force a full catch-up before they tick, so counters they
 *    snapshot match the spin run.
 *  - A deferred burster is a sleeper whose slept rounds are busy:
 *    it is parked on the same sleep list (wakeAt = window end), woken
 *    by the same hooks with the same horizons, and replayed with
 *    burstRun instead of fastForward. Every round it covers counts as
 *    progress — in the round loop, in the all-asleep jump, and for the
 *    current round when a mutation wake replays it.
 */

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "sim/engine.hh"

namespace opac::sim
{

void
Engine::replaySlot(unsigned slot, Cycle upTo)
{
    SleepState &ss = sleep_[slot];
    if (upTo <= ss.sleptFrom)
        return;
    Component *c = components[slot];
    Cycle count = upTo - ss.sleptFrom;
    if (ss.burst) {
        c->burstRun(ss.sleptFrom, count);
        _burstCycles += count;
    } else {
        c->fastForward(ss.sleptFrom, count);
        ++_fastForwards;
    }
    ss.sleptFrom = upTo;
}

void
Engine::wakeSlot(unsigned slot, Cycle upTo)
{
    SleepState &ss = sleep_[slot];
    replaySlot(slot, upTo);
    if (ss.burst) {
        ss.burst = false;
        --deferred_;
    }
    ss.asleep = false;
    ss.idleTicks = 0;
    ++awake_;
}

void
Engine::wakeComponentSlow(unsigned slot)
{
    // Sleeper slot before the mutating slot in round order: its turn
    // in the current round is already past (it would have seen the
    // pre-mutation state), so the current round is replayed too and
    // the next live tick lands on the next round. Sleeper at or after
    // the mutating slot: it wakes in time to tick live this round.
    const bool past = slot < currentSlot_;
    if (past && sleep_[slot].burst)
        burstWakeProgress_ = true;
    wakeSlot(slot, past ? cycle + 1 : cycle);
}

void
Engine::catchUpAll(Cycle upTo)
{
    for (unsigned s = 0; s < sleep_.size(); ++s) {
        if (!sleep_[s].asleep)
            continue;
        // Same round-order horizon rule as wakeComponentSlow, but the
        // component stays asleep: its wake hint (or burst window) is
        // still valid.
        replaySlot(s, s < currentSlot_ ? upTo + 1 : upTo);
    }
}

void
Engine::settle()
{
    if (!skipActive_)
        return;
    catchUpAll(cycle);
}

Cycle
Engine::runSkip(Cycle max_cycles)
{
    Cycle start = cycle;
    lastProgress = cycle - std::min(idleCarry_, cycle);
    idleCarry_ = 0;
    const unsigned n = static_cast<unsigned>(components.size());
    sleep_.assign(n, SleepState{});
    awake_ = n;
    deferred_ = 0;
    burstWakeProgress_ = false;
    // Polled once: only observers return a finite cycle, and they do
    // from every call. Burst-capable components that progressed may
    // defer a window of busy rounds (see engine.hh).
    for (unsigned s = 0; s < n; ++s) {
        sleep_[s].observer =
            components[s]->observesSystemAt(cycle) != Component::noEvent;
        sleep_[s].burster = fastTier_ && components[s]->burstCapable();
    }
    currentSlot_ = 0;
    skipActive_ = true;
    struct Guard
    {
        Engine &e;
        ~Guard() { e.skipActive_ = false; }
    } guard{*this};

    while (!allDone() && cycle < stopAt_) {
        checkMaxCycles(start, max_cycles);
        bool roundProgress = false;
        for (unsigned s = 0; s < n; ++s) {
            SleepState &ss = sleep_[s];
            if (ss.asleep) {
                if (ss.wakeAt > cycle)
                    continue;
                // Scheduled wake (hint reached or burst window over):
                // replay the deferred rounds, then tick live this
                // round.
                wakeSlot(s, cycle);
            }
            currentSlot_ = s;
            Component *c = components[s];
            if (ss.observer && c->observesSystemAt(cycle) == cycle)
                catchUpAll(cycle);
            progressed = false;
            c->tick(*this);
            if (progressed) {
                roundProgress = true;
                ss.idleTicks = 0;
                if (!ss.burster)
                    continue;
                ++_burstAttempts;
                Cycle q = c->burstQuantum(cycle + 1);
                if (q == 0)
                    continue;
                // Park the burster like a sleeper; its rounds replay
                // through burstRun when they must become visible.
                ss.asleep = true;
                ss.burst = true;
                ss.sleptFrom = cycle + 1;
                ss.wakeAt = cycle + 1 + q;
                --awake_;
                ++deferred_;
                ++_bursts;
                continue;
            }
            // Sleep only after two consecutive quiescent rounds:
            // components that alternate progress and one-cycle stalls
            // (a host feeding at tau = 2) would otherwise pay for hint
            // computation every other cycle and never sleep for long.
            if (++ss.idleTicks < 2)
                continue;
            Cycle at = c->nextEventAt(cycle + 1);
            if (at == Component::noEvent || at >= cycle + 2) {
                ss.asleep = true;
                ss.wakeAt = at;
                ss.sleptFrom = cycle + 1;
                --awake_;
            }
        }
        ++cycle;
        ++statCycles;
        // Between rounds every slot's next tick is at `cycle`, so
        // replay horizons behave as if the mutator ran before slot 0.
        currentSlot_ = 0;
        // A burster still deferred now either progressed live this
        // round or has a window covering it.
        if (roundProgress || deferred_ != 0 || burstWakeProgress_) {
            lastProgress = cycle;
        } else {
            ++statIdleCycles;
            if (watchdogCycles != 0
                && cycle - lastProgress >= watchdogCycles)
                watchdogExpired();
        }
        burstWakeProgress_ = false;
        if (awake_ != 0)
            continue;
        // Every component is asleep or deferred: up to the earliest
        // wake-up, each sleeper's rounds are copies of the round at
        // its sleptFrom (on the state its last tick left) and each
        // burster's lie inside its granted window, so jump there in
        // one step (everyone replays lazily on wake as usual).
        // Clamped to the watchdog, max_cycles and runUntil deadlines
        // so each fires at exactly the cycle the spin run reaches it.
        Cycle target = Component::noEvent;
        for (const SleepState &ss : sleep_)
            target = std::min(target, ss.wakeAt);
        if (watchdogCycles != 0)
            target = std::min(target, lastProgress + watchdogCycles);
        if (max_cycles != 0)
            target = std::min(target, start + max_cycles);
        target = std::min(target, stopAt_);
        if (target == Component::noEvent) {
            // No wake-up and no deadline armed: the spin engine would
            // hang here forever, which helps nobody.
            settle();
            throw DeadlockError(
                "engine", cycle,
                strfmt("deadlock: every component asleep with no "
                       "wake-up (engine mode skip)\n%s",
                       statusDump().c_str()));
        }
        if (target > cycle) {
            Cycle skip_n = target - cycle;
            cycle = target;
            statCycles += skip_n;
            _skippedCycles += skip_n;
            // The jump ends no later than any deferred window, so a
            // deferred burster progresses in every jumped round.
            if (deferred_ != 0)
                lastProgress = cycle;
            else
                statIdleCycles += skip_n;
        }
        if (watchdogCycles != 0 && cycle - lastProgress >= watchdogCycles)
            watchdogExpired();
    }
    catchUpAll(cycle);
    return cycle - start;
}

} // namespace opac::sim
