/**
 * @file
 * Shared pieces of the nextEventAt / fastForward protocol.
 *
 * Every component that supports idle-cycle skipping answers "when
 * could I act next?" with a minimum over queue fronts, countdowns and
 * pipeline landings. The accumulator and the FIFO front-ready wake
 * rule shared by timed_fifo, cell and host live here once. Replay
 * itself (fastForward) only credits counters: traced runs tick every
 * cycle, so no replayed round emits a trace event.
 */

#ifndef OPAC_SIM_REPLAY_HH
#define OPAC_SIM_REPLAY_HH

#include "common/types.hh"
#include "sim/engine.hh"

namespace opac::sim
{

/** Accumulates the minimum over "earliest event" hints. */
class HintMin
{
  public:
    /** Fold in a hint (noEvent is the identity). */
    void
    note(Cycle at)
    {
        if (at < _at)
            _at = at;
    }

    /**
     * Fold in a hint that only counts when it is not already in the
     * past — pipeline landings with when < now are ordered behind a
     * later entry and must not produce a stale wake-up.
     */
    void
    noteFuture(Cycle at, Cycle now)
    {
        if (at >= now)
            note(at);
    }

    Cycle value() const { return _at; }

  private:
    Cycle _at = Component::noEvent;
};

/**
 * The FIFO front-ready wake rule shared by every queue-backed hint: a
 * front that became poppable strictly before @p now was already seen
 * by its stalled consumer and cannot wake it; a front becoming ready
 * at or after @p now wakes the consumer at exactly its ready cycle.
 */
inline Cycle
frontReadyHint(Cycle ready, Cycle now)
{
    return ready < now ? Component::noEvent : ready;
}

} // namespace opac::sim

#endif // OPAC_SIM_REPLAY_HH
