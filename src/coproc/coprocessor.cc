#include "coproc/coprocessor.hh"

#include <bit>

#include "common/error.hh"
#include "common/logging.hh"

namespace opac::copro
{

Coprocessor::Coprocessor(const CoprocConfig &cfg)
    : cfg(cfg), statRoot("system"), mem(cfg.memoryWords),
      eng(cfg.watchdogCycles, &statRoot)
{
    opac_assert(cfg.cells >= 1 && cfg.cells <= 32,
                "cell count %u out of range [1, 32]", cfg.cells);
    eng.setMode(cfg.engineMode);
    eng.setFastTier(cfg.fastTier);
    std::vector<cell::Cell *> raw;
    for (unsigned i = 0; i < cfg.cells; ++i) {
        cellPtrs.push_back(std::make_unique<cell::Cell>(
            strfmt("cell%u", i), cfg.cell, &statRoot));
        raw.push_back(cellPtrs.back().get());
    }
    hostPtr = std::make_unique<host::Host>("host", cfg.host, mem, raw,
                                           &statRoot);
    // A cell-side mutation of an interface queue (result pushed on
    // tpo, operand drained from tpx/tpy) must wake a sleeping host,
    // and vice versa.
    for (auto &c : cellPtrs)
        c->setBusWakeNeighbor(hostPtr.get());
    // The sampler ticks first so a sample labelled cycle k is the state
    // after exactly k completed cycles; then the host: data it pushes
    // at cycle t becomes visible to cells at t + fifoLatency either
    // way, so order affects nothing observable; registration order is
    // fixed for determinism.
    if (cfg.statsSampleInterval > 0) {
        samplerPtr = std::make_unique<stats::Sampler>(
            "sampler", statRoot, cfg.statsSampleInterval);
        eng.add(samplerPtr.get());
    }
    // The injector ticks before the host and the cells so a fault
    // scheduled for cycle t lands before any cycle-t queue activity —
    // the same interleaving whether the engine spins or skips.
    if (cfg.faults.any()) {
        injectorPtr = std::make_unique<fault::Injector>(
            "injector", fault::buildPlan(cfg.faults, cfg.cells),
            &statRoot);
        injectorPtr->setArmHandler(
            [this](const fault::FaultEvent &e, Cycle now) {
                applyFault(e, now);
            });
        eng.add(injectorPtr.get());
    }
    eng.add(hostPtr.get());
    for (auto &c : cellPtrs)
        eng.add(c.get());
    if (cfg.host.recovery.enabled) {
        // A stalled transaction should retry, not kill the run: give
        // the watchdog a chance to recover before declaring deadlock.
        eng.setWatchdogHandler([this](sim::Engine &e) {
            return hostPtr->forceRecovery(e);
        });
    }

    // Whole-system derived metrics, evaluated lazily so they are always
    // consistent with the counters at the moment they are read.
    auto fma = [this] {
        std::uint64_t n = 0;
        for (auto &c : cellPtrs)
            n += c->fmaOps();
        return n;
    };
    auto flops = [this, fma] {
        std::uint64_t n = 2 * fma();
        for (auto &c : cellPtrs) {
            n += c->pmuRead(cell::PmuReg::MulOnly);
            n += c->pmuRead(cell::PmuReg::AddOnly);
        }
        return n;
    };
    fMaPerCycle.define([this, fma]() -> double {
        Cycle cy = eng.now();
        return cy ? double(fma()) / double(cy) : 0.0;
    });
    fFlopsPerCycle.define([this, flops]() -> double {
        Cycle cy = eng.now();
        return cy ? double(flops()) / double(cy) : 0.0;
    });
    fBusWordsPerFlop.define([this, flops]() -> double {
        std::uint64_t f = flops();
        std::uint64_t words =
            hostPtr->wordsSent() + hostPtr->wordsReceived();
        return f ? double(words) / double(f) : 0.0;
    });
    statRoot.addFormula("maPerCycle", &fMaPerCycle,
                        "multiply-adds per cycle, all cells");
    statRoot.addFormula("flopsPerCycle", &fFlopsPerCycle,
                        "floating-point operations per cycle");
    statRoot.addFormula("busWordsPerFlop", &fBusWordsPerFlop,
                        "host bus words moved per flop");
}

void
Coprocessor::loadMicrocode(Word entry, const isa::Program &prog,
                           unsigned nparams)
{
    for (auto &c : cellPtrs)
        c->loadMicrocode(entry, prog, nparams);
}

void
Coprocessor::attachTracer(trace::Tracer *t)
{
    eng.setTracer(t);
    hostPtr->attachTracer(t);
    for (auto &c : cellPtrs)
        c->attachTracer(t);
    if (injectorPtr)
        injectorPtr->attachTracer(t);
}

TimedFifo &
Coprocessor::fifoAt(unsigned cell, fault::FifoSite site)
{
    cell::Cell &c = *cellPtrs[cell];
    switch (site) {
      case fault::FifoSite::TpX:
        return c.tpx();
      case fault::FifoSite::TpY:
        return c.tpy();
      case fault::FifoSite::TpO:
        return c.tpo();
      case fault::FifoSite::TpI:
        return c.tpi();
      case fault::FifoSite::Sum:
        return c.sumQueue();
      case fault::FifoSite::Ret:
        return c.retQueue();
      case fault::FifoSite::Reby:
        return c.rebyQueue();
      default:
        opac_fatal("bad fifo site %u", unsigned(site));
    }
}

void
Coprocessor::applyFault(const fault::FaultEvent &e, Cycle now)
{
    unsigned cell = e.cell < cfg.cells ? e.cell : e.cell % cfg.cells;
    switch (e.kind) {
      case fault::FaultKind::FifoFlip:
        fifoAt(cell, e.site).faultCorrupt(e.mask, now);
        break;
      case fault::FaultKind::BusReorder:
        fifoAt(cell, e.site).faultReorder(now);
        break;
      case fault::FaultKind::BusDrop:
      case fault::FaultKind::BusDup:
        hostPtr->armBusFault(cell, e.kind);
        break;
      case fault::FaultKind::CellHang:
        cellPtrs[cell]->injectHang(now, e.arg);
        break;
      case fault::FaultKind::SpuriousHalt:
        cellPtrs[cell]->injectSpuriousHalt(now);
        break;
      case fault::FaultKind::MemLatency:
        hostPtr->armMemLatency(unsigned(e.arg));
        break;
      default:
        opac_fatal("bad fault kind %u", unsigned(e.kind));
    }
}

Cycle
Coprocessor::run(Cycle max_cycles)
{
    Cycle cycles = eng.run(max_cycles);
    // Close the time series with the final state (idempotent: skipped
    // when the last interval tick already sampled this cycle).
    if (samplerPtr)
        samplerPtr->snapshot(eng.now());
    return cycles;
}

Cycle
Coprocessor::runUntil(Cycle stop, Cycle max_cycles)
{
    // Deliberately no end-of-window sampler snapshot: the periodic
    // tick already recorded every boundary up to `stop`, and an extra
    // row here would differ from the uninterrupted run's series.
    return eng.runUntil(stop, max_cycles);
}

std::uint64_t
Coprocessor::configFingerprint() const
{
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint64_t v) { h = snap::fnvMix(h, v); };
    mix(cfg.cells);
    mix(cfg.cell.tf);
    mix(cfg.cell.interfaceDepth);
    mix(cfg.cell.tpiDepth);
    mix(cfg.cell.mulLatency);
    mix(cfg.cell.addLatency);
    mix(cfg.cell.moveLatency);
    mix(cfg.cell.fifoLatency);
    mix(cfg.cell.callDecodeCycles);
    mix(cfg.cell.controlOpsPerCycle);
    mix(std::uint64_t(cfg.cell.fp));
    mix(std::uint64_t(cfg.cell.parity));
    mix(cfg.host.tau);
    mix(cfg.host.callWordCost);
    mix(cfg.host.recipCycles);
    mix(cfg.host.recovery.enabled);
    mix(cfg.host.recovery.timeoutCycles);
    mix(cfg.host.recovery.retryBudget);
    mix(cfg.host.recovery.resetCostCycles);
    mix(cfg.memoryWords);
    mix(cfg.watchdogCycles);
    mix(cfg.statsSampleInterval);
    mix(cfg.faults.seed);
    mix(cfg.faults.horizon);
    mix(std::bit_cast<std::uint64_t>(cfg.faults.ratePerMcycle));
    mix(cfg.faults.count);
    mix(cfg.faults.kindMask);
    mix(cfg.faults.maxFlipBits);
    mix(cfg.faults.explicitEvents.size());
    for (const fault::FaultEvent &e : cfg.faults.explicitEvents) {
        mix(e.at);
        mix(std::uint64_t(e.kind));
        mix(e.cell);
        mix(std::uint64_t(e.site));
        mix(e.mask);
        mix(e.arg);
    }
    return h;
}

std::vector<const sim::Component *>
Coprocessor::componentList() const
{
    std::vector<const sim::Component *> list;
    if (samplerPtr)
        list.push_back(samplerPtr.get());
    if (injectorPtr)
        list.push_back(injectorPtr.get());
    list.push_back(hostPtr.get());
    for (const auto &c : cellPtrs)
        list.push_back(c.get());
    return list;
}

snap::Snapshot
Coprocessor::takeSnapshot() const
{
    snap::Snapshot s;
    s.cycle = eng.now();
    s.fingerprint = configFingerprint();
    {
        snap::Writer w;
        eng.saveState(w);
        s.add("engine", 1, w.take());
    }
    {
        snap::Writer w;
        statRoot.saveState(w);
        s.add("stats", 1, w.take());
    }
    {
        snap::Writer w;
        mem.saveState(w);
        s.add("memory", 1, w.take());
    }
    for (const sim::Component *c : componentList()) {
        snap::Writer w;
        c->saveState(w);
        s.add("comp." + c->name(), c->stateVersion(), w.take());
    }
    return s;
}

void
Coprocessor::restoreSnapshot(const snap::Snapshot &s)
{
    if (s.fingerprint != configFingerprint())
        throw SnapshotError(
            "snapshot",
            strfmt("configuration fingerprint mismatch: snapshot "
                   "%016llx, this machine %016llx",
                   (unsigned long long)s.fingerprint,
                   (unsigned long long)configFingerprint()));
    auto load = [&s](const std::string &name, auto &&fn) {
        const snap::Section &sec = s.require(name);
        snap::Reader r(sec.payload, "section '" + name + "'");
        fn(r, sec.version);
        r.expectEnd();
    };
    load("engine", [this](snap::Reader &r, std::uint32_t) {
        eng.loadState(r);
    });
    load("stats", [this](snap::Reader &r, std::uint32_t) {
        statRoot.loadState(r);
    });
    load("memory", [this](snap::Reader &r, std::uint32_t) {
        mem.loadState(r);
    });
    std::vector<const sim::Component *> comps = componentList();
    // Same config => same component set: 3 fixed sections + one per
    // component, anything else means a corrupted or foreign snapshot.
    if (s.sections().size() != comps.size() + 3)
        throw SnapshotError(
            "snapshot",
            strfmt("expected %zu sections, snapshot has %zu",
                   comps.size() + 3, s.sections().size()));
    for (const sim::Component *c : comps) {
        load("comp." + c->name(),
             [c](snap::Reader &r, std::uint32_t version) {
                 // Components are engine slots the Coprocessor owns
                 // non-const; the const walk is only for saveState.
                 const_cast<sim::Component *>(c)->loadState(r, version);
             });
    }
    if (s.cycle != eng.now())
        throw SnapshotError("snapshot",
                            "engine section disagrees with the header "
                            "cycle");
}

void
Coprocessor::saveSnapshot(const std::string &path) const
{
    takeSnapshot().writeFile(path);
}

void
Coprocessor::loadSnapshot(const std::string &path)
{
    restoreSnapshot(snap::Snapshot::readFile(path));
}

std::string
Coprocessor::statsReport() const
{
    std::string out;
    statRoot.dump(out);
    return out;
}

std::string
Coprocessor::statsJson() const
{
    std::string out = "{\"stats\": ";
    out += statRoot.json();
    if (samplerPtr) {
        out += ", \"samples\": ";
        out += samplerPtr->json();
    }
    out += "}";
    return out;
}

} // namespace opac::copro
