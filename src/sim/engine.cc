#include "sim/engine.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "snap/snapshot.hh"
#include "trace/trace.hh"

namespace opac::sim
{

void
Component::saveState(snap::Writer &w) const
{
    (void)w;
}

void
Component::loadState(snap::Reader &r, std::uint32_t version)
{
    (void)version;
    if (!r.atEnd())
        r.fail("component '" + _name +
               "' has no loadState but the snapshot carries a payload");
}

const char *
engineModeName(EngineMode m)
{
    switch (m) {
      case EngineMode::Spin:
        return "spin";
      case EngineMode::Skip:
        return "skip";
    }
    return "?";
}

bool
parseEngineMode(const std::string &text, EngineMode &out)
{
    for (EngineMode m : {EngineMode::Spin, EngineMode::Skip}) {
        if (text == engineModeName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

bool
Engine::allDone() const
{
    for (const auto *c : components) {
        if (!c->done())
            return false;
    }
    return true;
}

std::string
Engine::statusDump() const
{
    std::string out;
    for (const auto *c : components) {
        out += strfmt("  %-24s %s %s\n", c->name().c_str(),
                      c->done() ? "[done]" : "[busy]",
                      c->statusLine().c_str());
    }
    if (_tracer)
        out += _tracer->recentReport();
    return out;
}

Cycle
Engine::run(Cycle max_cycles)
{
    // Every exit, returned or thrown, is a run boundary.
    struct SettleOnExit
    {
        Engine &e;
        ~SettleOnExit()
        {
            for (Component *c : e.components)
                c->settleAt(e.cycle);
        }
    } settleOnExit{*this};
    // A cycle trace records every round of the lock-step machine, so
    // a traced run ticks every cycle whatever the mode.
    return _mode == EngineMode::Spin || _tracer ? runSpin(max_cycles)
                                                : runSkip(max_cycles);
}

Cycle
Engine::runUntil(Cycle stop, Cycle max_cycles)
{
    opac_assert(stop >= cycle,
                "runUntil target %llu is behind the clock (%llu)",
                static_cast<unsigned long long>(stop),
                static_cast<unsigned long long>(cycle));
    stopAt_ = stop;
    Cycle ran;
    try {
        ran = run(max_cycles);
    } catch (...) {
        stopAt_ = cycleNever;
        throw;
    }
    stopAt_ = cycleNever;
    // Carry the idle baseline over the boundary only when the run was
    // actually cut short; a natural completion leaves the engine in
    // the same state a plain run() would, so multi-run callers see no
    // difference.
    if (!allDone())
        idleCarry_ = cycle - lastProgress;
    return ran;
}

void
Engine::saveState(snap::Writer &w) const
{
    w.u64(cycle);
    w.u64(idleCarry_);
}

void
Engine::loadState(snap::Reader &r)
{
    cycle = r.u64();
    idleCarry_ = r.u64();
    lastProgress = cycle;
}

void
Engine::checkMaxCycles(Cycle start, Cycle max_cycles)
{
    if (max_cycles == 0 || cycle - start < max_cycles)
        return;
    settle();
    opac_fatal("simulation exceeded max_cycles = %llu "
               "(%llu cycles simulated)\n%s",
               static_cast<unsigned long long>(max_cycles),
               static_cast<unsigned long long>(cycle - start),
               statusDump().c_str());
}

void
Engine::watchdogExpired()
{
    if (watchdogHandler && watchdogHandler(*this)) {
        // A recovery handler claimed the expiry; restart the count and
        // give the machine another watchdog period to react.
        lastProgress = cycle;
        return;
    }
    settle();
    throw DeadlockError(
        "engine", cycle,
        strfmt("deadlock: no progress for %llu cycles "
               "(engine mode %s)\n%s",
               static_cast<unsigned long long>(watchdogCycles),
               engineModeName(_mode), statusDump().c_str()));
}

Cycle
Engine::runSpin(Cycle max_cycles)
{
    Cycle start = cycle;
    // The watchdog derives from engine time (cycles since the last
    // round that made progress), not from tick-loop iterations, so
    // both run modes count idleness the same way. A runUntil() stop
    // carries the idle baseline forward so a resumed run counts
    // idleness from the same cycle an uninterrupted one would.
    lastProgress = cycle - std::min(idleCarry_, cycle);
    idleCarry_ = 0;
    while (!allDone() && cycle < stopAt_) {
        checkMaxCycles(start, max_cycles);
        progressed = false;
        for (auto *c : components)
            c->tick(*this);
        ++cycle;
        ++statCycles;
        if (progressed) {
            lastProgress = cycle;
            continue;
        }
        ++statIdleCycles;
        if (watchdogCycles != 0 && cycle - lastProgress >= watchdogCycles)
            watchdogExpired();
    }
    return cycle - start;
}

} // namespace opac::sim
