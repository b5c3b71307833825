/**
 * @file
 * Superop fast tier of the cell sequencer.
 *
 * The compute-bound phase of every OPAC kernel is an innermost hardware
 * loop whose body reads and writes only cell-local state — the
 * matupdate column update `fma(rebyR, regAy, sum) → sum` and the
 * convolution passes `fma(rebyR, rW, sum) → sum` of section 7. Once
 * such a loop reaches its dense steady state, every cycle issues one
 * chained FMA and retires one, and nothing another component can
 * observe changes: the host and the other cells neither read nor
 * write the queues and registers involved.
 *
 * The cell therefore tells the engine, after a live tick, how many of
 * the following rounds it can *defer* (burstQuantum). The engine parks
 * it like a sleeper and later executes the deferred rounds in bulk
 * (burstRun) — at the end of the window, or earlier when a neighbor is
 * about to mutate the cell, an observer ticks or the run stops —
 * while the host keeps feeding the bus and the other cells keep
 * ticking. See sim/engine.hh for the engine half of the contract.
 *
 * The contract is byte-exactness: burstRun must leave every counter,
 * queue and register exactly as the same number of live tick() rounds
 * would have, for any prefix of the granted window. Only windows whose
 * every cycle provably has the same shape are granted:
 *
 *  - the body is the canonical single-instruction chained fma
 *    `fma(<recirculating local queue>, <register/constant>, <popped
 *    local queue>, Dst<same queue>)` (FastBody, analyzed once per
 *    (kernel, body pc)), and controlOpsPerCycle >= 2 so the
 *    zero-overhead wrap (LoopEnd consumed, body re-entered) fits in
 *    one cycle's control budget;
 *  - the pipeline is dense: exactly mulLatency + addLatency results in
 *    flight, landing one per cycle from the window's first cycle, all
 *    into the popped queue — which also proves no register write is
 *    pending, so the scalar operand is constant;
 *  - both queues are streamable (parity off, no armed injector fault,
 *    no tracer, every stored word fallen through);
 *  - the window ends before the loop exits.
 *
 * Under these conditions each cycle is: land one result into the
 * popped queue, wrap, recirculate the mul operand, pop the addend,
 * issue. burstRun executes that as two ring operations plus the FP
 * ops and settles every counter and watermark in bulk afterwards
 * (occupancy needs nothing: the queues credit it at count changes,
 * and a window changes no count); the steady state reproduces itself,
 * so a window may be executed in several consecutive chunks.
 */

#include "cell/cell.hh"

#include "common/logging.hh"

namespace opac::cell
{

using isa::Opcode;
using isa::Src;

namespace
{

/** Deepest FP pipeline burstRun() handles (mulLatency + addLatency). */
constexpr unsigned kMaxTurboDepth = 16;

/**
 * Shortest window worth deferring: below this the engine's park and
 * replay bookkeeping costs about what the live ticks would.
 */
constexpr Cycle kMinBurstCycles = 4;

/** The destination bit writing back into the queue @p pop reads. */
std::uint8_t
dstBitFor(Src pop)
{
    switch (pop) {
      case Src::Sum:
        return isa::DstSum;
      case Src::Ret:
        return isa::DstRet;
      case Src::Reby:
        return isa::DstReby;
      default:
        return 0;
    }
}

/** True for the register/constant operand kinds readOperand() serves
 *  without queue traffic (stable across a window with no register
 *  writes in flight). */
bool
isScalarOperand(Src s)
{
    return s == Src::RegAy || s == Src::Reg || s == Src::Zero
           || s == Src::One;
}

} // namespace

std::size_t
Cell::FastBodyKeyHash::operator()(const FastBodyKey &k) const
{
    return std::hash<const void *>()(k.first)
           ^ (k.second * 0x9e3779b97f4a7c15ull);
}

const Cell::FastBody *
Cell::fastBodyFor(std::size_t body_pc)
{
    if (lastBody && lastBody->kernel == current
        && lastBody->bodyPc == body_pc)
        return lastBody;
    auto [it, fresh] =
        fastBodies.try_emplace(FastBodyKey{current, body_pc});
    FastBody &b = it->second;
    lastBody = &b;
    if (!fresh)
        return &b;

    b.kernel = current;
    b.bodyPc = body_pc;
    b.endPc = body_pc + 1;
    const unsigned depth = cfg.mulLatency + cfg.addLatency;
    if (cfg.controlOpsPerCycle >= 2 && depth >= 1
        && depth <= kMaxTurboDepth
        && body_pc + 1 < current->prog.size()
        && current->prog.at(body_pc).op == Opcode::Compute
        && current->prog.at(body_pc + 1).op == Opcode::LoopEnd) {
        // Every operand kind below is cell-local, so the shape alone
        // rules out interface-queue traffic.
        const isa::Instr &in = current->prog.at(body_pc);
        const isa::DecodedInstr &d = current->prog.decodedAt(body_pc);
        if (d.mulActive && d.addActive && d.addAFromMul && !d.mvActive
            && d.numNeeds == 0 && !d.wawAy && d.numWawRegs == 0
            && isa::isRecirc(in.mulA.kind) && isScalarOperand(in.mulB.kind)
            && dstBitFor(in.addB.kind) != 0
            && in.dstMask == dstBitFor(in.addB.kind)
            && in.mvDstMask == 0
            && queueFor(in.mulA.kind) != queueFor(in.addB.kind)) {
            b.turbo = true;
            b.rotQ = queueFor(in.mulA.kind);
            b.popQ = queueFor(in.addB.kind);
            b.dstMask = in.dstMask;
            b.mulB = in.mulB;
            b.addOp = in.addOp;
        }
    }
    if (b.turbo)
        ++statFtCompiled;
    else
        ++statFtIneligible;
    return &b;
}

Cycle
Cell::burstQuantum(Cycle from)
{
    // Not in a loop at all: silent (no fallback counter) — this is the
    // ordinary non-steady-state case, not a refused burst.
    if (_dead || _faulted || from < hangUntil
        || state != SeqState::Run || loopStack.empty())
        return 0;
    const LoopFrame &f = loopStack.back();
    const FastBody *b = fastBodyFor(f.bodyPc);
    if (!b->turbo) {
        ++statFtFallbackBody;
        return 0;
    }

    // Dense steady state from the window's first cycle (see the file
    // comment): pc inside the body region, the pipeline full with one
    // result landing per cycle into the popped queue, both queues
    // streamable. Anything else — the pipeline ramp at loop entry
    // above all — ticks live; silent for the same reason as above.
    if (pc != b->endPc && pc != b->bodyPc)
        return 0;
    const unsigned depth = cfg.mulLatency + cfg.addLatency;
    if (inflight.size() != depth || wbReadyAt > from)
        return 0;
    for (unsigned i = 0; i < depth; ++i) {
        if (inflight[i].when != from + Cycle(i)
            || inflight[i].dstMask != b->dstMask)
            return 0;
    }
    if (!b->popQ->streamable(from) || !b->rotQ->streamable(from)
        || b->popQ->space() == 0)
        return 0;

    // The issues left in the loop region: the wrap-free issue at
    // bodyPc (if not yet taken) plus one per remaining iteration. The
    // loop exit, and whatever follows it, stays outside the window.
    const Cycle q = Cycle(b->endPc - pc) + Cycle(f.remaining);
    if (q < kMinBurstCycles)
        return 0;
    burstBody = b;
    ++statFtBursts;
    return q;
}

void
Cell::burstRun(Cycle from, Cycle cycles, sim::Engine &engine)
{
    (void)engine;
    const FastBody *b = burstBody;
    opac_assert(b && b->kernel == current,
                "%s: burstRun without a granted window", name().c_str());
    // The entry conditions were checked by burstQuantum() at the
    // window start, and each chunk leaves the machine in the same
    // steady state for the next one.
    const unsigned depth = cfg.mulLatency + cfg.addLatency;
    TimedFifo *const popq = b->popQ;
    TimedFifo *const rotq = b->rotQ;

    const std::uint64_t w = cycles;
    // No register write is in flight (every entry's dstMask is the
    // queue bit), so the scalar operand is constant over the window.
    const Word bval = readOperand(b->mulB, from, 0);
    const bool token = fpu->valueFree();

    Word vals[kMaxTurboDepth];
    for (unsigned i = 0; i < depth; ++i)
        vals[i] = inflight[i].value;

    unsigned vi = 0;
    for (std::uint64_t k = 0; k < w; ++k) {
        const Cycle now = from + Cycle(k);
        const Word s = popq->streamExchange(vals[vi], now);
        const Word a = rotq->streamRotate(now);
        vals[vi] = token ? 0 : fpu->add(fpu->mul(a, bval), s, b->addOp);
        if (++vi == depth)
            vi = 0;
    }

    // Settle everything the per-cycle path would have left behind.
    // Queue counts are invariant (one push and one pop per cycle on
    // each streamed queue), so occupancy has nothing to credit.
    popq->streamCommit(w, true);
    rotq->streamCommit(w, false);
    if (token)
        fpu->countBulk(w);
    for (unsigned j = 0; j < depth; ++j) {
        inflight[j].when = from + Cycle(w) + Cycle(j);
        inflight[j].value = vals[(vi + j) % depth];
    }
    wbReadyAt = from + Cycle(w);
    const std::uint64_t wraps = w - (pc == b->bodyPc ? 1 : 0);
    LoopFrame &f = loopStack.back();
    f.remaining -= std::uint32_t(wraps);
    pc = b->endPc;
    statBusy += w;
    statFma += w;
    statIssued += w;
    statFtBurstIters += wraps;
    statFtBurstCycles += w;
    statFtTurboCycles += w;
}

} // namespace opac::cell
