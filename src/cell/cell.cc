#include "cell/cell.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "isa/encode.hh"
#include "sim/replay.hh"
#include "snap/snapshot.hh"

namespace opac::cell
{

using isa::Src;
using isa::Opcode;

Cell::Cell(std::string name, const CellConfig &cfg,
           stats::StatGroup *parent_stats)
    : sim::Component(name),
      cfg(cfg),
      fpu(makeFpUnit(cfg.fp)),
      _tpx("tpx", cfg.interfaceDepth, cfg.fifoLatency),
      _tpy("tpy", cfg.interfaceDepth, cfg.fifoLatency),
      _tpo("tpo", cfg.interfaceDepth, cfg.fifoLatency),
      _tpi("tpi", cfg.tpiDepth, cfg.fifoLatency),
      _sum("sum", cfg.tf, cfg.fifoLatency),
      _ret("ret", cfg.tf, cfg.fifoLatency),
      _reby("reby", cfg.tf, cfg.fifoLatency),
      statGroup(name, parent_stats),
      ftGroup(name + ".fastTier")
{
    // Order matches isa::CellQueue (the decoded-operand queue ids).
    queueTab = {&_sum, &_ret, &_reby, &_tpo, &_tpx, &_tpy};
    statGroup.addCounter("issued", &statIssued, "micro-ops issued");
    statGroup.addCounter("fma", &statFma, "chained multiply-adds");
    statGroup.addCounter("mulOnly", &statMulOnly, "multiplies");
    statGroup.addCounter("addOnly", &statAddOnly, "additions");
    statGroup.addCounter("moves", &statMoves, "move-path transfers");
    statGroup.addCounter("busyCycles", &statBusy, "cycles not idle");
    statGroup.addCounter("idleCycles", &statIdle, "cycles waiting for "
                         "calls");
    statGroup.addCounter("stallSrcEmpty", &statStallSrc,
                         "issue stalls: source queue empty");
    statGroup.addCounter("stallDstFull", &statStallDst,
                         "issue stalls: destination queue full");
    statGroup.addCounter("stallRegPending", &statStallReg,
                         "issue stalls: register write in flight");
    statGroup.addCounter("calls", &statCalls, "kernel calls executed");
    statGroup.addCounter("writePortConflicts", &statWritePortConflicts,
                         "same-cycle writebacks to one queue");
    statGroup.addCounter("hangCycles", &statHangCycles,
                         "cycles frozen by a hang or fault");
    statGroup.addCounter("faults", &statFaults,
                         "times the cell entered the faulted state");
    statGroup.addCounter("hardResets", &statHardResets,
                         "reset-line pulses received");
    // Fast-tier diagnostics live in a detached group: the stats JSON
    // under statGroup must stay byte-identical with the tier on or
    // off, and burst engagement depends on the engine mode.
    ftGroup.addCounter("compiled", &statFtCompiled,
                       "loop bodies analyzed with a turbo plan");
    ftGroup.addCounter("ineligible", &statFtIneligible,
                       "loop bodies analyzed and rejected");
    ftGroup.addCounter("bursts", &statFtBursts,
                       "burst windows granted");
    ftGroup.addCounter("burstCycles", &statFtBurstCycles,
                       "deferred cycles executed in bulk");
    ftGroup.addCounter("burstIters", &statFtBurstIters,
                       "loop iterations completed inside bursts");
    ftGroup.addCounter("turboCycles", &statFtTurboCycles,
                       "burst cycles run by the specialized executor");
    ftGroup.addCounter("fallbackBody", &statFtFallbackBody,
                       "burst refused: body has no turbo plan");
    _tpx.addStats(statGroup);
    _tpy.addStats(statGroup);
    _tpo.addStats(statGroup);
    _tpi.addStats(statGroup);
    _sum.addStats(statGroup);
    _ret.addStats(statGroup);
    _reby.addStats(statGroup);
    fpu->registerStats(statGroup);

    // Word protection: an unrepairable error on any queue this cell
    // consumes freezes it (the host notices via its call timeout).
    // tpo is consumed by the host, which installs its own handler.
    for (TimedFifo *q : {&_tpx, &_tpy, &_tpi, &_sum, &_ret, &_reby}) {
        q->setParity(cfg.parity);
        q->setProtectionHandler(
            [this, q](Cycle) { enterFaulted(q->name().c_str()); });
    }
    _tpo.setParity(cfg.parity);

    // Every queue mutation must wake this cell before it happens so
    // the skip engine can replay slept-through rounds against the
    // pre-mutation state. setBusWakeNeighbor() later adds the host on
    // the four interface queues.
    for (TimedFifo *q : queueTab)
        q->setWakeTargets(this, nullptr);
    _tpi.setWakeTargets(this, nullptr);

    // Occupancy is tracked on the local queues only, from the
    // engine's first round.
    for (TimedFifo *q : localQueues())
        q->trackOccupancy(0);
}

std::uint64_t
Cell::pmuRead(PmuReg reg) const
{
    switch (reg) {
      case PmuReg::Issued:
        return statIssued.value();
      case PmuReg::Fma:
        return statFma.value();
      case PmuReg::MulOnly:
        return statMulOnly.value();
      case PmuReg::AddOnly:
        return statAddOnly.value();
      case PmuReg::Moves:
        return statMoves.value();
      case PmuReg::BusyCycles:
        return statBusy.value();
      case PmuReg::IdleCycles:
        return statIdle.value();
      case PmuReg::StallSrcEmpty:
        return statStallSrc.value();
      case PmuReg::StallDstFull:
        return statStallDst.value();
      case PmuReg::StallRegPending:
        return statStallReg.value();
      case PmuReg::Calls:
        return statCalls.value();
      case PmuReg::HighWaterTpx:
        return _tpx.highWater();
      case PmuReg::HighWaterTpy:
        return _tpy.highWater();
      case PmuReg::HighWaterTpo:
        return _tpo.highWater();
      case PmuReg::HighWaterTpi:
        return _tpi.highWater();
      case PmuReg::HighWaterSum:
        return _sum.highWater();
      case PmuReg::HighWaterRet:
        return _ret.highWater();
      case PmuReg::HighWaterReby:
        return _reby.highWater();
      case PmuReg::NumRegs:
        break;
    }
    opac_warn_once("%s: PMU read of unknown register %u reads as zero",
                   name().c_str(), unsigned(reg));
    return 0;
}

void
Cell::attachTracer(trace::Tracer *t)
{
    tracer = t;
    traceComp = t ? t->internComponent(name()) : 0;
    _tpx.attachTracer(t, traceComp);
    _tpy.attachTracer(t, traceComp);
    _tpo.attachTracer(t, traceComp);
    _tpi.attachTracer(t, traceComp);
    _sum.attachTracer(t, traceComp);
    _ret.attachTracer(t, traceComp);
    _reby.attachTracer(t, traceComp);
    // Pre-intern every kernel's name track so dispatch-time lookups
    // never append to the track table: track ids stay independent of
    // runtime call order (identical across engine modes).
    if (t) {
        for (const auto &[entry, k] : microcode)
            t->internTrack(traceComp, k.prog.name());
    }
}

void
Cell::loadMicrocode(Word entry, isa::Program prog, unsigned nparams)
{
    prog.validate();
    prog.decode();
    if (nparams > isa::numParams)
        throw MicrocodeError(prog.name(),
                             strfmt("%u parameters exceed %u registers",
                                    nparams, isa::numParams));
    if (entry == pmuCallEntry || entry == resetCallEntry)
        throw MicrocodeError(prog.name(),
                             strfmt("entry id %#x collides with a "
                                    "reserved call",
                                    entry));
    Kernel &k = microcode[entry];
    k = Kernel{std::move(prog), nparams};
    // Reloading an entry reuses the map node, so cached body analyses
    // keyed on the Kernel address would go stale: drop them all.
    fastBodies.clear();
    lastBody = nullptr;
    burstBody = nullptr;
    if (tracer)
        tracer->internTrack(traceComp, k.prog.name());
}

TimedFifo *
Cell::queueFor(Src s)
{
    unsigned q = isa::cellQueueOf(s);
    return q < isa::numCellQueues ? queueTab[q] : nullptr;
}

StallCause
Cell::checkHazards(const isa::DecodedInstr &d, Cycle now) const
{
    // The read list preserves operand order (mulA, mulB, addA, addB,
    // mvSrc), so the first failing check — and with it the reported
    // stall cause — is the same as the un-decoded per-operand scan.
    for (unsigned i = 0; i < d.numReads; ++i) {
        const isa::DecodedRead &r = d.reads[i];
        switch (r.kind) {
          case isa::DecodedRead::Kind::Queue:
            if (!queueTab[r.queue]->canPop(now))
                return StallCause::SrcEmpty;
            break;
          case isa::DecodedRead::Kind::RegAy:
            if (regAyPending)
                return StallCause::RegPending;
            break;
          case isa::DecodedRead::Kind::Reg:
            if (regPending[r.reg])
                return StallCause::RegPending;
            break;
        }
    }

    // WAW interlock: a register with an in-flight write cannot be
    // written again until it lands.
    if (d.wawAy && regAyPending)
        return StallCause::RegPending;
    for (unsigned i = 0; i < d.numWawRegs; ++i) {
        if (regPending[d.wawRegs[i]])
            return StallCause::RegPending;
    }

    // Net space requirement per queue (pushes minus pops, precomputed).
    for (unsigned i = 0; i < d.numNeeds; ++i) {
        const auto &n = d.needs[i];
        if (queueTab[n.queue]->space() < std::size_t(n.amount))
            return StallCause::DstFull;
    }
    return StallCause::None;
}

Word
Cell::readOperand(const isa::Operand &op, Cycle now, Word mul_out)
{
    switch (op.kind) {
      case Src::None:
        opac_panic("reading unused operand");
      case Src::MulOut:
        return mul_out;
      case Src::RegAy:
        return regAy;
      case Src::Reg:
        return regs[op.idx];
      case Src::Zero:
        return 0;
      case Src::One:
        return floatToWord(1.0f);
      default: {
        TimedFifo *q = queueFor(op.kind);
        if (isa::isRecirc(op.kind))
            return q->recirculate(now);
        return q->pop(now);
      }
    }
}

void
Cell::scheduleWrite(Cycle when, Word value, std::uint8_t mask,
                    std::uint8_t dst_reg, Cycle now)
{
    if (mask == 0)
        return;
    // Reserve queue slots now so the writeback cannot overflow.
    if (mask & isa::DstSum)
        _sum.reserve();
    if (mask & isa::DstRet)
        _ret.reserve();
    if (mask & isa::DstReby)
        _reby.reserve();
    if (mask & isa::DstTpO)
        _tpo.reserve();
    if (mask & isa::DstRegAy)
        regAyPending = true;
    if (mask & isa::DstReg)
        regPending[dst_reg] = true;
    (void)now;
    wbReadyAt = std::min(wbReadyAt, when);
    inflight.push_back(InFlight{when, value, mask, dst_reg});
}

void
Cell::issueCompute(const isa::Instr &in, const isa::DecodedInstr &d,
                   Cycle now)
{
    bool mul_active = d.mulActive;
    bool add_active = d.addActive;

    Word mul_out = 0;
    unsigned fp_latency = 0;
    if (mul_active) {
        Word a = readOperand(in.mulA, now, 0);
        Word b = readOperand(in.mulB, now, 0);
        mul_out = fpu->mul(a, b);
        fp_latency += cfg.mulLatency;
    }
    Word fp_result = mul_out;
    if (add_active) {
        Word a = d.addAFromMul ? mul_out : readOperand(in.addA, now, 0);
        Word b = readOperand(in.addB, now, 0);
        fp_result = fpu->add(a, b, in.addOp);
        fp_latency += cfg.addLatency;
    }
    if (mul_active || add_active)
        scheduleWrite(now + fp_latency, fp_result, in.dstMask, in.dstReg,
                      now);

    if (d.mvActive) {
        Word v = readOperand(in.mvSrc, now, mul_out);
        scheduleWrite(now + cfg.moveLatency, v, in.mvDstMask, in.mvDstReg,
                      now);
        ++statMoves;
    }

    if (mul_active && add_active)
        ++statFma;
    else if (mul_active)
        ++statMulOnly;
    else if (add_active)
        ++statAddOnly;
    ++statIssued;

    if (tracer) {
        trace::OpClass cls = trace::OpClass::Move;
        unsigned latency = cfg.moveLatency;
        if (mul_active && add_active) {
            cls = trace::OpClass::Fma;
            latency = fp_latency;
        } else if (mul_active) {
            cls = trace::OpClass::Mul;
            latency = fp_latency;
        } else if (add_active) {
            cls = trace::OpClass::Add;
            latency = fp_latency;
        }
        tracer->emit(now, trace::EventKind::Issue, std::uint8_t(cls),
                     traceComp, 0, std::uint32_t(pc), latency);
    }
}

void
Cell::drainWritebacks(Cycle now, sim::Engine &engine)
{
    // Writebacks commit in issue order per destination: a short-latency
    // move issued after a long-latency FP op must not overtake it into
    // the same queue (the queues have one in-order write port). An
    // entry that cannot commit blocks its destinations for every later
    // entry; entries commit atomically.
    if (now < wbReadyAt)
        return;
    bool pushed[4] = {false, false, false, false};
    bool blocked[4] = {false, false, false, false};
    bool reg_blocked = false;
    auto blockedFor = [&](const InFlight &w) {
        if ((w.dstMask & isa::DstSum) && blocked[0])
            return true;
        if ((w.dstMask & isa::DstRet) && blocked[1])
            return true;
        if ((w.dstMask & isa::DstReby) && blocked[2])
            return true;
        if ((w.dstMask & isa::DstTpO) && blocked[3])
            return true;
        if ((w.dstMask & (isa::DstRegAy | isa::DstReg)) && reg_blocked)
            return true;
        return false;
    };
    auto blockFor = [&](const InFlight &w) {
        if (w.dstMask & isa::DstSum)
            blocked[0] = true;
        if (w.dstMask & isa::DstRet)
            blocked[1] = true;
        if (w.dstMask & isa::DstReby)
            blocked[2] = true;
        if (w.dstMask & isa::DstTpO)
            blocked[3] = true;
        if (w.dstMask & (isa::DstRegAy | isa::DstReg))
            reg_blocked = true;
    };
    for (std::size_t i = 0; i < inflight.size();) {
        InFlight &w = inflight[i];
        if (w.when > now || blockedFor(w)) {
            blockFor(w);
            ++i;
            continue;
        }
        auto push = [&](TimedFifo &q, int pi) {
            if (pushed[pi]) {
                ++statWritePortConflicts;
                opac_warn_once("%s: two writebacks into '%s' in one "
                               "cycle (single write port modelled as "
                               "free)", name().c_str(),
                               q.name().c_str());
            }
            pushed[pi] = true;
            q.pushReserved(w.value, now);
        };
        if (w.dstMask & isa::DstSum)
            push(_sum, 0);
        if (w.dstMask & isa::DstRet)
            push(_ret, 1);
        if (w.dstMask & isa::DstReby)
            push(_reby, 2);
        if (w.dstMask & isa::DstTpO)
            push(_tpo, 3);
        if (w.dstMask & isa::DstRegAy) {
            regAy = w.value;
            regAyPending = false;
        }
        if (w.dstMask & isa::DstReg) {
            regs[w.dstReg] = w.value;
            regPending[w.dstReg] = false;
        }
        if (tracer) {
            tracer->emit(now, trace::EventKind::Retire, 0, traceComp, 0,
                         w.dstMask, w.value);
        }
        engine.noteProgress();
        inflight.erase(inflight.begin() + std::ptrdiff_t(i));
    }
    // Entries left blocked behind a later `when` retry next cycle at
    // the earliest; otherwise nothing can land before the minimum
    // remaining `when`.
    Cycle m = sim::Component::noEvent;
    for (const InFlight &w : inflight)
        m = std::min(m, w.when);
    wbReadyAt = std::max(m, now + 1);
}

/** Count one stalled issue cycle and emit its trace event. */
void
Cell::emitStall(StallCause cause, Cycle now)
{
    trace::StallWhy why = trace::StallWhy::SrcEmpty;
    switch (cause) {
      case StallCause::None:
        opac_panic("emitStall without a stall");
      case StallCause::SrcEmpty:
        ++statStallSrc;
        why = trace::StallWhy::SrcEmpty;
        break;
      case StallCause::DstFull:
        ++statStallDst;
        why = trace::StallWhy::DstFull;
        break;
      case StallCause::RegPending:
        ++statStallReg;
        why = trace::StallWhy::RegPending;
        break;
    }
    if (tracer) {
        tracer->emit(now, trace::EventKind::Stall, std::uint8_t(why),
                     traceComp, 0, std::uint32_t(pc), 0);
    }
}

/**
 * Execute zero-cost control flow at the current pc: hardware loop
 * begin/end. Returns false when the lookahead budget is exhausted
 * without reaching an issueable instruction.
 */
bool
Cell::stepControl(Cycle now)
{
    (void)now;
    unsigned budget = cfg.controlOpsPerCycle;
    while (budget-- > 0) {
        opac_assert(pc < current->prog.size(), "pc out of range in '%s'",
                    current->prog.name().c_str());
        const isa::Instr &in = current->prog.at(pc);
        switch (in.op) {
          case Opcode::LoopBegin: {
            std::uint32_t count = in.countIsParam
                ? std::uint32_t(std::max<std::int32_t>(
                      0, params[in.countParam]))
                : in.count;
            if (count == 0) {
                // Skip the body: scan for the matching LoopEnd.
                unsigned depth = 1;
                std::size_t scan = pc + 1;
                while (depth > 0) {
                    const isa::Instr &s = current->prog.at(scan);
                    if (s.op == Opcode::LoopBegin)
                        ++depth;
                    else if (s.op == Opcode::LoopEnd)
                        --depth;
                    ++scan;
                }
                pc = scan;
            } else {
                loopStack.push_back(LoopFrame{pc + 1, count - 1});
                ++pc;
            }
            break;
          }
          case Opcode::LoopEnd: {
            opac_assert(!loopStack.empty(), "LoopEnd with empty stack");
            LoopFrame &f = loopStack.back();
            if (f.remaining > 0) {
                --f.remaining;
                pc = f.bodyPc;
            } else {
                loopStack.pop_back();
                ++pc;
            }
            break;
          }
          default:
            return true; // an issueable instruction
        }
    }
    return false; // lookahead bound hit; retry next cycle
}

void
Cell::tickSequencer(Cycle now, sim::Engine &engine)
{
    switch (state) {
      case SeqState::Idle:
        if (_tpi.canPop(now)) {
            Word entry = _tpi.pop(now);
            if (entry == pmuCallEntry) {
                // PMU status call: one parameter word selects the
                // register; the readback is not a kernel call and
                // leaves the kernel counters untouched.
                pmuCall = true;
                paramsToRead = 1;
                paramIndex = 0;
                state = SeqState::ReadParams;
                engine.noteProgress();
                break;
            }
            auto it = microcode.find(entry);
            if (it == microcode.end()) {
                // A corrupted or junk call word must not kill the
                // simulation: the sequencer jams and the host-side
                // timeout (or the watchdog) deals with it.
                opac_warn_once("%s: call to unknown microcode entry %u"
                               " (cell faulted)",
                               name().c_str(), entry);
                enterFaulted("unknown call entry");
                engine.noteProgress(); // the pop was progress
                break;
            }
            current = &it->second;
            paramsToRead = current->nparams;
            paramIndex = 0;
            state = paramsToRead > 0 ? SeqState::ReadParams
                                     : SeqState::Decode;
            decodeLeft = cfg.callDecodeCycles;
            ++statCalls;
            ++statBusy;
            if (tracer) {
                callTrack = tracer->internTrack(traceComp,
                                                current->prog.name());
                tracer->emit(now, trace::EventKind::CallBegin, 0,
                             traceComp, callTrack, entry, 0);
            }
            engine.noteProgress();
        } else {
            ++statIdle;
        }
        break;

      case SeqState::ReadParams:
        ++statBusy;
        if (_tpi.canPop(now)) {
            params[paramIndex++] = std::int32_t(_tpi.pop(now));
            if (--paramsToRead == 0)
                state = pmuCall ? SeqState::PmuRespond : SeqState::Decode;
            engine.noteProgress();
        }
        break;

      case SeqState::PmuRespond: {
        ++statBusy;
        if (_tpo.space() >= 2) {
            std::uint64_t v = pmuRead(PmuReg(std::uint32_t(params[0])));
            _tpo.push(Word(v), now);
            _tpo.push(Word(v >> 32), now);
            pmuCall = false;
            state = SeqState::Idle;
            engine.noteProgress();
        } else {
            ++statStallDst;
        }
        break;
      }

      case SeqState::Decode:
        // A pure countdown is not forward progress: it is fully
        // predictable (see nextEventAt), so the engine may skip it.
        // Completing the dispatch is.
        ++statBusy;
        if (decodeLeft > 1) {
            --decodeLeft;
        } else {
            pc = 0;
            loopStack.clear();
            state = SeqState::Run;
            engine.noteProgress();
        }
        break;

      case SeqState::Run: {
        ++statBusy;
        if (!stepControl(now)) {
            engine.noteProgress(); // control scan is progress
            break;
        }
        const isa::Instr &in = current->prog.at(pc);
        switch (in.op) {
          case Opcode::Compute: {
            StallCause stall =
                checkHazards(current->prog.decodedAt(pc), now);
            if (stall == StallCause::None) {
                issueCompute(in, current->prog.decodedAt(pc), now);
                ++pc;
                engine.noteProgress();
            } else {
                emitStall(stall, now);
            }
            break;
          }
          case Opcode::SetParam: {
            std::int32_t &d = params[in.dstParam];
            switch (in.paramOp) {
              case isa::ParamOp::LoadImm:
                d = in.imm;
                break;
              case isa::ParamOp::Copy:
                d = params[in.srcParam];
                break;
              case isa::ParamOp::Inc:
                ++d;
                break;
              case isa::ParamOp::Dec:
                --d;
                break;
              case isa::ParamOp::Mul2:
                d *= 2;
                break;
              case isa::ParamOp::Div2:
                d /= 2;
                break;
              case isa::ParamOp::AddImm:
                d += in.imm;
                break;
            }
            ++pc;
            ++statIssued;
            if (tracer) {
                tracer->emit(now, trace::EventKind::Issue,
                             std::uint8_t(trace::OpClass::Control),
                             traceComp, 0, std::uint32_t(pc - 1), 0);
            }
            engine.noteProgress();
            break;
          }
          case Opcode::ResetFifo: {
            // A reset must let in-flight writebacks to the queue land
            // first, or their reserved slots would be destroyed.
            std::uint8_t bit = in.fifo == isa::LocalFifo::Sum
                ? isa::DstSum
                : in.fifo == isa::LocalFifo::Ret ? isa::DstRet
                                                 : isa::DstReby;
            bool write_in_flight = false;
            for (const auto &w : inflight) {
                if (w.dstMask & bit) {
                    write_in_flight = true;
                    break;
                }
            }
            if (write_in_flight) {
                emitStall(StallCause::DstFull, now);
                break;
            }
            switch (in.fifo) {
              case isa::LocalFifo::Sum:
                _sum.reset(now);
                break;
              case isa::LocalFifo::Ret:
                _ret.reset(now);
                break;
              case isa::LocalFifo::Reby:
                _reby.reset(now);
                break;
            }
            ++pc;
            ++statIssued;
            if (tracer) {
                tracer->emit(now, trace::EventKind::Issue,
                             std::uint8_t(trace::OpClass::Control),
                             traceComp, 0, std::uint32_t(pc - 1), 0);
            }
            engine.noteProgress();
            break;
          }
          case Opcode::Halt:
            if (tracer) {
                tracer->emit(now, trace::EventKind::CallEnd, 0,
                             traceComp, callTrack, 0, 0);
            }
            state = SeqState::Idle;
            current = nullptr;
            engine.noteProgress();
            break;
          default:
            opac_panic("control op leaked to issue stage");
        }
        break;
      }
    }
}

void
Cell::tick(sim::Engine &engine)
{
    if (_dead)
        return;
    Cycle now = engine.now();
    if (_faulted || now < hangUntil) {
        // Frozen: sequencer and writeback stand still, the queues keep
        // accepting pushes from the host.
        ++statHangCycles;
        return;
    }
    drainWritebacks(now, engine);
    tickSequencer(now, engine);
}

Cycle
Cell::nextEventAt(Cycle now) const
{
    if (_dead)
        return noEvent;
    sim::HintMin at;
    // Any queue front falling through can unblock the sequencer or
    // the host (tpo feeds the host's Recv), so all seven count.
    for (const TimedFifo *q : queueTab)
        at.note(q->nextReadyAt(now));
    at.note(_tpi.nextReadyAt(now));
    // A faulted cell acts on nothing itself; only its queue fronts
    // matter (the host may still drain tpo). A hung cell additionally
    // wakes when the hang expires; its internal countdowns stay
    // frozen until then.
    if (_faulted)
        return at.value();
    if (now < hangUntil) {
        at.note(hangUntil);
        return at.value();
    }
    // At exact hang expiry the freeze lifts this very cycle: the
    // sequencer resumes whatever it was doing (a control op, a stale
    // but still poppable queue front, a landable writeback) with no
    // queue event to announce it. Report `now`; an early wake is
    // always safe — a genuinely stalled cell re-sleeps on a fresh
    // hint computed past the hang.
    if (hangUntil != 0 && now == hangUntil)
        return now;
    // Pipeline results landing unblock RegPending/ResetFifo stalls and
    // writeback-ordering blocks. when == now counts (it lands in the
    // round at `now`); entries with when < now that did not commit
    // are ordered behind one with when >= now, which covers them.
    for (const auto &w : inflight)
        at.noteFuture(w.when, now);
    if (state == SeqState::Decode)
        at.note(now + decodeLeft - 1);
    return at.value();
}

void
Cell::fastForward(Cycle from, Cycle cycles)
{
    opac_assert(!tracer, "%s: fastForward under a tracer",
                name().c_str());
    if (cycles == 0)
        return;
    if (_dead)
        return;
    if (_faulted || from < hangUntil) {
        // The skip window cannot cross hangUntil (nextEventAt reports
        // it), so every replayed round is a frozen one.
        statHangCycles += cycles;
        return;
    }
    // Every slept round is the round at `from` on the state the last
    // tick left (no drainable writebacks and no state change by
    // construction of the skip window): credit that round's
    // per-state busy/stall accounting once per round.
    switch (state) {
      case SeqState::Idle:
        statIdle += cycles;
        break;
      case SeqState::ReadParams:
        statBusy += cycles;
        break;
      case SeqState::PmuRespond:
        statBusy += cycles;
        statStallDst += cycles;
        break;
      case SeqState::Decode:
        // The skip window never reaches the dispatch cycle.
        statBusy += cycles;
        decodeLeft -= unsigned(cycles);
        break;
      case SeqState::Run: {
        statBusy += cycles;
        const isa::Instr &in = current->prog.at(pc);
        StallCause stall;
        if (in.op == Opcode::Compute) {
            stall = checkHazards(current->prog.decodedAt(pc), from);
        } else {
            // Only a blocked ResetFifo can stall in Run state; every
            // other non-Compute op always completes (= progress).
            opac_assert(in.op == Opcode::ResetFifo,
                        "%s: quiescent Run state at a non-stallable op "
                        "(op=%u pc=%zu from=%llu cycles=%llu hang=%llu "
                        "faulted=%d inflight=%zu tpi=%zu)",
                        name().c_str(), unsigned(in.op), pc,
                        (unsigned long long)from,
                        (unsigned long long)cycles,
                        (unsigned long long)hangUntil, int(_faulted),
                        inflight.size(), _tpi.size());
            stall = StallCause::DstFull;
        }
        switch (stall) {
          case StallCause::None:
            opac_panic("%s: quiescent Run state with no hazard",
                       name().c_str());
          case StallCause::SrcEmpty:
            statStallSrc += cycles;
            break;
          case StallCause::DstFull:
            statStallDst += cycles;
            break;
          case StallCause::RegPending:
            statStallReg += cycles;
            break;
        }
        break;
      }
    }
}

void
Cell::settleAt(Cycle now)
{
    for (TimedFifo *q : localQueues())
        q->settleOccupancy(now);
}

bool
Cell::done() const
{
    if (_dead)
        return true;
    if (_faulted)
        return false; // stuck: recovery resets us or the watchdog fires
    return state == SeqState::Idle && _tpi.empty() && inflight.empty();
}

void
Cell::hardReset(Cycle now)
{
    // External mutation entry point (the host's recovery path pulls
    // the reset line): wake before touching anything so a sleeping
    // cell replays against its pre-reset state.
    wakeForMutation();
    for (TimedFifo *q : queueTab)
        q->reset(now);
    _tpi.reset(now);
    state = SeqState::Idle;
    current = nullptr;
    pc = 0;
    paramsToRead = 0;
    paramIndex = 0;
    decodeLeft = 0;
    pmuCall = false;
    loopStack.clear();
    inflight.clear();
    wbReadyAt = noEvent;
    regPending = {};
    regAyPending = false;
    _faulted = false;
    hangUntil = 0;
    faultWhy.clear();
    if (_broken) {
        // A hard (permanent) fault re-asserts itself the moment the
        // reset line is released: only markDead() silences it.
        _faulted = true;
        faultWhy = "hard fault";
    }
    ++statHardResets;
}

void
Cell::markDead(Cycle now)
{
    wakeForMutation();
    hardReset(now);
    _dead = true;
    // The reset closed the occupancy intervals at `now`; a dead cell's
    // rounds are not sampled.
    for (TimedFifo *q : localQueues())
        q->trackOccupancy(cycleNever);
    opac_warn_once("%s: marked dead at cycle %llu", name().c_str(),
                   (unsigned long long)now);
}

void
Cell::injectHang(Cycle now, Cycle duration)
{
    wakeForMutation();
    if (_dead)
        return;
    if (duration == 0) {
        _broken = true;
        enterFaulted("injected permanent hang");
        return;
    }
    hangUntil = std::max(hangUntil, now + duration);
}

void
Cell::injectSpuriousHalt(Cycle now)
{
    wakeForMutation();
    if (_dead || _faulted || state == SeqState::Idle)
        return;
    // The sequencer drops everything mid-kernel. Unconsumed parameter
    // or data words stay in the queues and will desynchronize the
    // next call — exactly the cascade a real control-logic upset
    // causes. In-flight pipeline results still land.
    if (tracer && state == SeqState::Run)
        tracer->emit(now, trace::EventKind::CallEnd, 0, traceComp,
                     callTrack, 0, 0);
    state = SeqState::Idle;
    current = nullptr;
    paramsToRead = 0;
    pmuCall = false;
    loopStack.clear();
}

void
Cell::enterFaulted(const char *why)
{
    wakeForMutation();
    if (_dead || _faulted)
        return;
    _faulted = true;
    faultWhy = why;
    ++statFaults;
}

void
Cell::saveState(snap::Writer &w) const
{
    static_assert(isa::numRegs <= 64, "regPending saved as a u64 mask");
    // The complete microcode store, as encoded images: kernels can be
    // installed at runtime, so the snapshot cannot assume the fresh
    // machine it restores into has the same store. std::map iterates
    // in entry-id order — stable across install order.
    w.u32(std::uint32_t(microcode.size()));
    for (const auto &[entry, k] : microcode) {
        w.u32(entry);
        w.u32(k.nparams);
        w.str(k.prog.name());
        std::vector<std::uint32_t> image = isa::encode(k.prog);
        w.u32(std::uint32_t(image.size()));
        for (std::uint32_t word : image)
            w.u32(word);
    }
    for (Word v : regs)
        w.u32(v);
    std::uint64_t pend = 0;
    for (unsigned i = 0; i < isa::numRegs; ++i) {
        if (regPending[i])
            pend |= std::uint64_t(1) << i;
    }
    w.u64(pend);
    w.u32(regAy);
    w.b(regAyPending);

    w.u8(static_cast<std::uint8_t>(state));
    // The running kernel is named by its microcode entry id; the
    // Kernel pointer itself is process-local.
    bool running = current != nullptr;
    Word entry = 0;
    if (running) {
        for (const auto &[e, k] : microcode) {
            if (&k == current) {
                entry = e;
                break;
            }
        }
    }
    w.b(running);
    w.u32(entry);
    w.u64(pc);
    w.u32(paramsToRead);
    w.u32(paramIndex);
    w.u32(decodeLeft);
    w.b(pmuCall);
    for (std::int32_t p : params)
        w.i32(p);
    w.u32(static_cast<std::uint32_t>(loopStack.size()));
    for (const LoopFrame &f : loopStack) {
        w.u64(f.bodyPc);
        w.u32(f.remaining);
    }
    w.u32(static_cast<std::uint32_t>(inflight.size()));
    for (const InFlight &f : inflight) {
        w.u64(f.when);
        w.u32(f.value);
        w.u8(f.dstMask);
        w.u8(f.dstReg);
    }
    w.u64(wbReadyAt);

    w.b(_faulted);
    w.b(_broken);
    w.b(_dead);
    w.u64(hangUntil);
    w.str(faultWhy);
    w.u16(callTrack);
    w.u8(fpu->flags());

    for (const TimedFifo *q :
         {&_tpx, &_tpy, &_tpo, &_tpi, &_sum, &_ret, &_reby})
        q->saveState(w);
}

void
Cell::loadState(snap::Reader &r, std::uint32_t version)
{
    (void)version;
    std::uint32_t nkernels = r.u32();
    microcode.clear();
    current = nullptr;
    for (std::uint32_t i = 0; i < nkernels; ++i) {
        Word entry = r.u32();
        unsigned nparams = r.u32();
        std::string kname = r.str();
        std::vector<std::uint32_t> image(r.u32());
        for (std::uint32_t &word : image)
            word = r.u32();
        try {
            loadMicrocode(entry, isa::decode(image, kname), nparams);
        } catch (const Error &e) {
            r.fail(name() + ": snapshot microcode entry " +
                   std::to_string(entry) + " rejected: " + e.what());
        }
    }
    for (Word &v : regs)
        v = r.u32();
    std::uint64_t pend = r.u64();
    for (unsigned i = 0; i < isa::numRegs; ++i)
        regPending[i] = (pend >> i) & 1;
    regAy = r.u32();
    regAyPending = r.b();

    std::uint8_t st = r.u8();
    if (st > static_cast<std::uint8_t>(SeqState::PmuRespond))
        r.fail(name() + ": bad sequencer state " + std::to_string(st));
    state = static_cast<SeqState>(st);
    bool running = r.b();
    Word entry = r.u32();
    current = nullptr;
    if (running) {
        auto it = microcode.find(entry);
        if (it == microcode.end())
            r.fail(name() + ": running microcode entry " +
                   std::to_string(entry) + " is not installed");
        current = &it->second;
    }
    pc = r.u64();
    if (current && pc >= current->prog.size())
        r.fail(name() + ": pc " + std::to_string(pc) +
               " out of range for kernel '" + current->prog.name() +
               "'");
    paramsToRead = r.u32();
    paramIndex = r.u32();
    decodeLeft = r.u32();
    pmuCall = r.b();
    if (paramIndex > isa::numParams || paramsToRead > isa::numParams)
        r.fail(name() + ": parameter cursor out of range");
    for (std::int32_t &p : params)
        p = r.i32();
    loopStack.assign(r.u32(), LoopFrame{});
    for (LoopFrame &f : loopStack) {
        f.bodyPc = r.u64();
        f.remaining = r.u32();
        if (current && f.bodyPc >= current->prog.size())
            r.fail(name() + ": loop frame pc out of range");
    }
    inflight.assign(r.u32(), InFlight{});
    for (InFlight &f : inflight) {
        f.when = r.u64();
        f.value = r.u32();
        f.dstMask = r.u8();
        f.dstReg = r.u8();
        if ((f.dstMask & isa::DstReg) && f.dstReg >= isa::numRegs)
            r.fail(name() + ": in-flight writeback register out of "
                            "range");
    }
    wbReadyAt = r.u64();

    _faulted = r.b();
    _broken = r.b();
    _dead = r.b();
    hangUntil = r.u64();
    faultWhy = r.str();
    callTrack = r.u16();
    fpu->setFlags(r.u8());

    for (TimedFifo *q :
         {&_tpx, &_tpy, &_tpo, &_tpi, &_sum, &_ret, &_reby})
        q->loadState(r);

    // The restored stats tree credits every round before the restored
    // clock (the engine section loads first); a dead cell stays
    // untracked.
    for (TimedFifo *q : localQueues())
        q->trackOccupancy(_dead ? cycleNever : clock());

    // Derived caches rebuild lazily against the restored state.
    fastBodies.clear();
    lastBody = nullptr;
    burstBody = nullptr;
}

std::string
Cell::statusLine() const
{
    const char *st = "?";
    switch (state) {
      case SeqState::Idle: st = "idle"; break;
      case SeqState::ReadParams: st = "read-params"; break;
      case SeqState::Decode: st = "decode"; break;
      case SeqState::Run: st = "run"; break;
      case SeqState::PmuRespond: st = "pmu-respond"; break;
    }
    std::string health;
    if (_dead)
        health = " DEAD";
    else if (_faulted)
        health = strfmt(" FAULTED(%s)", faultWhy.c_str());
    else if (hangUntil != 0)
        health = strfmt(" hung-until=%llu",
                        (unsigned long long)hangUntil);
    return strfmt("state=%s%s kernel=%s pc=%zu tpi=%zu tpx=%zu tpo=%zu "
                  "sum=%zu ret=%zu reby=%zu inflight=%zu",
                  st, health.c_str(),
                  current ? current->prog.name().c_str() : "-", pc,
                  _tpi.size(), _tpx.size(), _tpo.size(), _sum.size(),
                  _ret.size(), _reby.size(), inflight.size());
}

} // namespace opac::cell
