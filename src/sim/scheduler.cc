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
 */

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "sim/engine.hh"
#include "trace/trace.hh"

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
    if (_tracer) {
        // Cycle-major within the component; the ordered merge
        // restores cycle-major order across components.
        trace::Tracer::setEmitSlot(slot);
        for (Cycle k = 0; k < count; ++k)
            c->fastForward(ss.sleptFrom + k, 1, *this);
        trace::Tracer::setEmitSlot(currentSlot_);
    } else {
        c->fastForward(ss.sleptFrom, count, *this);
    }
    ss.sleptFrom = upTo;
    ++_fastForwards;
}

void
Engine::wakeComponentSlow(unsigned slot)
{
    // Sleeper slot before the mutating slot in round order: its turn
    // in the current round is already past (it would have seen the
    // pre-mutation state), so the current round is replayed too and
    // the next live tick lands on the next round. Sleeper at or after
    // the mutating slot: it wakes in time to tick live this round.
    SleepState &ss = sleep_[slot];
    replaySlot(slot, slot < currentSlot_ ? cycle + 1 : cycle);
    ss.asleep = false;
    ss.idleTicks = 0;
    ++awake_;
}

void
Engine::catchUpAll(Cycle upTo)
{
    for (unsigned s = 0; s < sleep_.size(); ++s) {
        if (!sleep_[s].asleep)
            continue;
        // Same round-order horizon rule as wakeComponentSlow, but the
        // component stays asleep: its wake hint is still valid.
        replaySlot(s, s < currentSlot_ ? upTo + 1 : upTo);
    }
}

void
Engine::settle()
{
    if (!skipActive_)
        return;
    catchUpAll(cycle);
    if (_tracer)
        _tracer->flushOrdered(Component::noEvent);
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
    // Polled once: only observers return a finite cycle, and they do
    // from every call.
    for (unsigned s = 0; s < n; ++s) {
        sleep_[s].observer =
            components[s]->observesSystemAt(cycle) != Component::noEvent;
    }
    currentSlot_ = 0;
    const bool ordered = _tracer != nullptr;
    // Superop bursts: an awake streaming component can take a
    // multi-cycle quantum while every other slot is either asleep past
    // the window or provably passive (attributed-quiescent with a
    // future hint). Sleeping slots stay asleep and replay lazily, as
    // across an all-asleep jump.
    const bool burst = fastTier_ && !ordered;
    attributeProgress_ = burst;
    if (burst) {
        slotProg_.assign(n, 0);
        nextBurstTry_ = cycle;
        burstFailStreak_ = 0;
    }
    if (ordered)
        _tracer->beginOrdered(n);
    skipActive_ = true;
    struct Guard
    {
        Engine &e;
        bool ordered;
        ~Guard()
        {
            e.skipActive_ = false;
            if (ordered && e._tracer)
                e._tracer->endOrdered();
        }
    } guard{*this, ordered};

    while (!allDone() && cycle < stopAt_) {
        checkMaxCycles(start, max_cycles);
        bool roundProgress = false;
        if (burst)
            std::fill(slotProg_.begin(), slotProg_.end(),
                      std::uint8_t(0));
        for (unsigned s = 0; s < n; ++s) {
            SleepState &ss = sleep_[s];
            if (ss.asleep) {
                if (ss.wakeAt > cycle)
                    continue;
                // Scheduled wake: replay the slept rounds, then tick
                // live this round.
                replaySlot(s, cycle);
                ss.asleep = false;
                ss.idleTicks = 0;
                ++awake_;
            }
            currentSlot_ = s;
            Component *c = components[s];
            if (ss.observer && c->observesSystemAt(cycle) == cycle)
                catchUpAll(cycle);
            if (ordered)
                trace::Tracer::setEmitSlot(s);
            progressed = false;
            c->tick(*this);
            if (progressed) {
                roundProgress = true;
                ss.idleTicks = 0;
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
        if (roundProgress) {
            lastProgress = cycle;
        } else {
            ++statIdleCycles;
            if (watchdogCycles != 0
                && cycle - lastProgress >= watchdogCycles)
                watchdogExpired();
        }
        if (ordered) {
            // Events below every sleeper's replay resumption point and
            // the current cycle are final; release them in order.
            Cycle watermark = cycle;
            for (const SleepState &ss : sleep_) {
                if (ss.asleep && ss.sleptFrom < watermark)
                    watermark = ss.sleptFrom;
            }
            _tracer->flushOrdered(watermark);
        }
        if (burst && roundProgress && cycle >= nextBurstTry_
            && attemptBurst(start, max_cycles)) {
            if (watchdogCycles != 0
                && cycle - lastProgress >= watchdogCycles)
                watchdogExpired();
            continue;
        }
        if (awake_ != 0)
            continue;
        // Every component is asleep: all rounds up to the earliest
        // wake-up are idle replicas, so jump there in one step (the
        // sleepers replay lazily on wake as usual). Clamped to the
        // watchdog, max_cycles and runUntil deadlines so each fires at
        // exactly the cycle the spin run reaches it.
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
            statIdleCycles += skip_n;
            _skippedCycles += skip_n;
        }
        if (watchdogCycles != 0 && cycle - lastProgress >= watchdogCycles)
            watchdogExpired();
    }
    catchUpAll(cycle);
    return cycle - start;
}

} // namespace opac::sim
