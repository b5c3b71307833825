/**
 * @file
 * The reference clock: a fixed unit of host work that shares no code
 * with the simulator, timed right after each stretch of simulation so
 * host-time rates can be stated per second of a reference host.
 *
 * On a shared virtual machine other guests slow every instruction
 * stream on a core (a busy sibling hyperthread, a contended cache) for
 * stretches of seconds to minutes, so a run's plain CPU-second rate
 * moves by tens of percent between runs. The same slowdown stretches
 * the reference unit run next to the simulation, so scaling each
 * stretch's CPU seconds by kReferenceUnitS / (the unit's measured
 * time) keeps the simulator's own speed. Because the unit's code never
 * changes with the simulator, a faster simulator still reads faster.
 */

#ifndef OPAC_PERFBENCH_REFERENCE_HH
#define OPAC_PERFBENCH_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/**
 * Nominal seconds of one reference unit: a reference second is the
 * time in which a host runs 1 / kReferenceUnitS units. About what one
 * unit takes on a quiet 4-vCPU cloud VM, so reference rates read close
 * to plain ones there.
 */
constexpr double kReferenceUnitS = 0.004;

/** Keeps the reference unit's result alive past the optimiser. */
inline volatile std::uint32_t referenceSink;

/**
 * Run one reference unit — a data-dependent walk over a 1 MiB table
 * with integer mixing and branches, the kind of work an interpreter
 * does per simulated cycle — and return what it cost.
 */
inline Cost
referenceUnit()
{
    constexpr std::uint32_t kWords = 1u << 18;
    static std::vector<std::uint32_t> table(kWords);
    const double w0 = nowSeconds(), c0 = cpuSeconds();
    // Same start state every time, so every unit does the same work.
    std::fill(table.begin(), table.end(), 1u);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint32_t acc = 0;
    for (unsigned i = 0; i < 400000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &t = table[(x ^ acc) & (kWords - 1)];
        if (t & 1)
            acc += t >> 1;
        else
            t += std::uint32_t(x >> 32);
        ++t;
    }
    referenceSink = acc;
    Cost c;
    c.cpu = cpuSeconds() - c0;
    c.wall = nowSeconds() - w0;
    return c;
}

/**
 * CPU seconds of one reference unit, as the median of five run now:
 * for a reading taken once between long stretches of work, where a
 * single unit's time would carry its own noise into every second of
 * the stretch.
 */
inline double
referenceSeconds()
{
    std::vector<double> t;
    for (unsigned i = 0; i < 5; ++i)
        t.push_back(referenceUnit().cpu);
    std::nth_element(t.begin(), t.begin() + 2, t.end());
    return t[2];
}

/**
 * @p cpu CPU seconds of work just done, on the reference clock: scaled
 * by kReferenceUnitS over the CPU time of a reference unit run now.
 */
inline double
onReferenceClock(double cpu)
{
    return cpu * kReferenceUnitS / referenceUnit().cpu;
}

} // namespace perfbench

#endif // OPAC_PERFBENCH_REFERENCE_HH
