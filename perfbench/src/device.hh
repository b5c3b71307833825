/**
 * @file
 * Device-layer counters read from a simulated machine's public stats
 * after it ran, summed over cells and machines, and turned into the
 * sim/cell/fast_tier/softfloat/fifo/host per-layer metrics.
 */

#ifndef OPAC_PERFBENCH_DEVICE_HH
#define OPAC_PERFBENCH_DEVICE_HH

#include <map>
#include <string>

#include "coproc/coprocessor.hh"

namespace perfbench
{

/** True when @p name ends with @p suffix. */
inline bool
endsWith(const std::string &name, const std::string &suffix)
{
    return name.size() >= suffix.size()
           && name.compare(name.size() - suffix.size(), suffix.size(),
                           suffix) == 0;
}

/**
 * Device counters read from a machine's public stats after run(),
 * summed over its cells (and over machines, for the serve pool).
 */
struct Device
{
    double cycles = 0, cellCycles = 0, skipped = 0;
    double issued = 0, fma = 0, busy = 0;
    double stallSrc = 0, stallDst = 0, stallReg = 0;
    double burstCycles = 0, turboCycles = 0, fallbackBody = 0;
    double bursts = 0, burstAttempts = 0;
    double softOps = 0, fifoWords = 0, parityCorrected = 0;
    double hostSent = 0, hostRecv = 0, hostStallFull = 0, hostBusy = 0;

    /** @p run_cycles: the run's simulated length on this machine. */
    void
    add(const opac::copro::Coprocessor &sys, double run_cycles)
    {
        using namespace opac;
        // Cells and engine are reachable only through non-const
        // accessors; nothing below mutates the machine.
        auto &s = const_cast<copro::Coprocessor &>(sys);
        const unsigned p = sys.numCells();
        cycles += run_cycles;
        cellCycles += p * run_cycles;
        skipped += double(s.engine().skippedCycles());
        bursts += double(s.engine().bursts());
        burstAttempts += double(s.engine().burstAttempts());
        const bool soft = sys.config().cell.fp == cell::FpKind::Soft;
        for (unsigned i = 0; i < p; ++i) {
            const stats::StatGroup &g = s.cell(i).stats();
            issued += double(g.counterValue("issued"));
            fma += double(g.counterValue("fma"));
            busy += double(g.counterValue("busyCycles"));
            stallSrc += double(g.counterValue("stallSrcEmpty"));
            stallDst += double(g.counterValue("stallDstFull"));
            stallReg += double(g.counterValue("stallRegPending"));
            const stats::StatGroup &ft = s.cell(i).fastTierStats();
            burstCycles += double(ft.counterValue("burstCycles"));
            turboCycles += double(ft.counterValue("turboCycles"));
            fallbackBody += double(ft.counterValue("fallbackBody"));
            g.forEachScalar([&](const std::string &name, double v) {
                if (endsWith(name, ".pushes"))
                    fifoWords += v;
                else if (endsWith(name, ".parityCorrected"))
                    parityCorrected += v;
                else if (soft && (endsWith(name, "fpu.muls")
                                  || endsWith(name, "fpu.adds")))
                    softOps += v;
            });
        }
        const stats::StatGroup &h = s.host().stats();
        hostSent += double(h.counterValue("wordsSent"));
        hostRecv += double(h.counterValue("wordsReceived"));
        hostStallFull += double(h.counterValue("stallFifoFull"));
        hostBusy += double(h.counterValue("busyCycles"));
    }

    /**
     * Fill the cell/fast-tier/softfloat/fifo/host/sim per-layer
     * metrics. @p run_s: host seconds those cycles took; @p useful_ma:
     * the workload's useful multiply-adds.
     */
    void
    report(std::map<std::string, double> &m, double run_s,
           double useful_ma) const
    {
        auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        m["sim.run_s"] = run_s;
        m["sim.cycles"] = cycles;
        m["sim.skipped_frac"] = frac(skipped, cycles);
        m["cell.issued"] = issued;
        m["cell.busy_frac"] = frac(busy, cellCycles);
        m["cell.stall_src_empty_frac"] = frac(stallSrc, cellCycles);
        m["cell.stall_dst_full_frac"] = frac(stallDst, cellCycles);
        m["cell.stall_reg_pending_frac"] = frac(stallReg, cellCycles);
        m["cell.ns_per_issued"] = frac(run_s * 1e9, issued);
        m["fast_tier.burst_frac"] = frac(burstCycles, cellCycles);
        m["fast_tier.turbo_frac"] = frac(turboCycles, cellCycles);
        m["fast_tier.burst_yield"] = frac(bursts, burstAttempts);
        m["fast_tier.fallback_body"] = fallbackBody;
        m["softfloat.ops"] = softOps;
        m["fifo.words_moved"] = fifoWords;
        m["fifo.parity_corrected"] = parityCorrected;
        m["host.words_sent"] = hostSent;
        m["host.words_received"] = hostRecv;
        m["host.bus_words_per_ma"] = frac(hostSent + hostRecv, useful_ma);
        m["host.stall_fifo_full_frac"] = frac(hostStallFull, cycles);
        m["host.busy_frac"] = frac(hostBusy, cycles);
    }
};

} // namespace perfbench

#endif // OPAC_PERFBENCH_DEVICE_HH
