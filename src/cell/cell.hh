/**
 * @file
 * The OPAC cell: computation block + sequencer (paper section 5, fig. 4).
 *
 * The cell contains:
 *  - interface FIFO queues tpx, tpy (operands in), tpo (results out) and
 *    tpi (kernel calls + parameters in),
 *  - local FIFO queues sum, ret and reby of capacity Tf,
 *  - the register regay and a small multiport register file,
 *  - a pipelined FP multiplier and adder with a direct multiply-add
 *    chain path, plus a one-cycle move/bypass path,
 *  - a microcode sequencer with hardware loops (zero-cycle loop
 *    overhead, per [Se91]) and a tiny parameter ALU.
 *
 * Timing model (one micro-instruction issued per cycle):
 *  - issue requires every popped queue non-empty, every net-pushed queue
 *    to have room (a slot is reserved at issue for the in-flight
 *    result), and no pending-write register among the reads;
 *  - a chained multiply-add completes after mulLatency + addLatency
 *    cycles, mul-only after mulLatency, add-only after addLatency, a
 *    move after moveLatency;
 *  - recirculating reads (pop + repush) happen combinationally at issue;
 *  - a word pushed into a FIFO at cycle t is poppable at t +
 *    fifoLatency.
 *
 * Call protocol on tpi: one word with the microcode entry id, then the
 * kernel's declared number of parameter words, then a fixed decode
 * delay. This models the paper's task granularity: the host names a
 * compute-bound kernel and its array sizes; the cell runs it to
 * completion.
 */

#ifndef OPAC_CELL_CELL_HH
#define OPAC_CELL_CELL_HH

#include <array>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cell/fp_unit.hh"
#include "stats/stats.hh"
#include "fifo/timed_fifo.hh"
#include "isa/program.hh"
#include "sim/engine.hh"

namespace opac::cell
{

/** Static configuration of one cell. */
struct CellConfig
{
    std::size_t tf = 2048;          //!< sum/ret/reby capacity (words)
    std::size_t interfaceDepth = 2048; //!< tpx/tpy/tpo capacity
    std::size_t tpiDepth = 64;      //!< call queue capacity
    unsigned mulLatency = 3;        //!< multiplier pipeline depth
    unsigned addLatency = 3;        //!< adder pipeline depth
    unsigned moveLatency = 1;       //!< bypass path latency
    unsigned fifoLatency = 1;       //!< FIFO fall-through latency
    unsigned callDecodeCycles = 4;  //!< fixed per-call dispatch cost
    unsigned controlOpsPerCycle = 8; //!< sequencer lookahead bound
    FpKind fp = FpKind::Soft;       //!< arithmetic back-end
    /** Word protection on all seven FIFO queues (--parity=). */
    fault::ParityMode parity = fault::ParityMode::Off;
};

/** Why the sequencer could not issue this cycle (for stall stats). */
enum class StallCause
{
    None,
    SrcEmpty,
    DstFull,
    RegPending,
};

/**
 * Architectural performance-monitor registers of one cell. The host
 * reads them over the normal call interface: a call word with the
 * reserved entry pmuCallEntry, one parameter word selecting the
 * register, and the 64-bit value returned on tpo as two words (low
 * half first). The registers mirror the harness-side stats registry,
 * so observability is part of the simulated machine, not only of the
 * harness.
 */
enum class PmuReg : std::uint32_t
{
    Issued = 0,        //!< micro-ops issued
    Fma,               //!< chained multiply-adds issued
    MulOnly,           //!< multiply-only issues
    AddOnly,           //!< add-only issues
    Moves,             //!< move-path transfers
    BusyCycles,        //!< cycles not idle
    IdleCycles,        //!< cycles waiting for calls
    StallSrcEmpty,     //!< issue stalls: source queue empty
    StallDstFull,      //!< issue stalls: destination queue full
    StallRegPending,   //!< issue stalls: register write in flight
    Calls,             //!< kernel calls executed
    HighWaterTpx,      //!< deepest tpx occupancy
    HighWaterTpy,      //!< deepest tpy occupancy
    HighWaterTpo,      //!< deepest tpo occupancy
    HighWaterTpi,      //!< deepest tpi occupancy
    HighWaterSum,      //!< deepest sum occupancy
    HighWaterRet,      //!< deepest ret occupancy
    HighWaterReby,     //!< deepest reby occupancy
    NumRegs,
};

/** Reserved tpi entry id dispatching a PMU read, never a kernel. */
constexpr Word pmuCallEntry = 0xffffffffu;

/**
 * Reserved tpi entry id decoded at the write port as a hardware reset
 * line: the recovery path's in-band cell reset (Host::resetOp). Never
 * enters the call queue and never names a kernel.
 */
constexpr Word resetCallEntry = 0xfffffffeu;

/** One OPAC cell, a sim::Component on the coprocessor clock. */
class Cell : public sim::Component
{
  public:
    Cell(std::string name, const CellConfig &cfg,
         stats::StatGroup *parent_stats = nullptr);

    /**
     * Install a kernel in the microcode store.
     * @param entry   Entry id used by call words on tpi.
     * @param prog    Validated microcode.
     * @param nparams Number of parameter words following the call word.
     */
    void loadMicrocode(Word entry, isa::Program prog, unsigned nparams);

    // Host-side access to the interface queues.
    TimedFifo &tpx() { return _tpx; }
    TimedFifo &tpy() { return _tpy; }
    TimedFifo &tpo() { return _tpo; }
    TimedFifo &tpi() { return _tpi; }

    const CellConfig &config() const { return cfg; }

    // sim::Component interface.
    void tick(sim::Engine &engine) override;
    bool done() const override;
    std::string statusLine() const override;

    /**
     * Register the host as the wake target on the other end of the
     * four interface queues (tpx/tpy/tpo/tpi), so a cell-side
     * mutation — a result pushed on tpo, operands consumed from
     * tpx/tpy — wakes a sleeping host under the skip engine. Called
     * once at coprocessor build time.
     */
    void
    setBusWakeNeighbor(sim::Component *host)
    {
        _tpx.setWakeTargets(this, host);
        _tpy.setWakeTargets(this, host);
        _tpo.setWakeTargets(this, host);
        _tpi.setWakeTargets(this, host);
    }

    /**
     * Idle-cycle skipping support: the cell's future events are FIFO
     * fronts falling through (any of the seven queues — tpo matters
     * to the host's Recv), FP/move pipeline results landing, and the
     * fixed decode countdown.
     */
    Cycle nextEventAt(Cycle now) const override;
    void fastForward(Cycle from, Cycle cycles) override;

    /** Close the sum/ret/reby occupancy intervals at @p now. */
    void settleAt(Cycle now) override;

    /**
     * Superop fast tier (src/cell/fast_tier.cc): when the sequencer
     * streams a canonical chained-FMA loop body in its dense steady
     * state (local queues and registers only — never
     * tpx/tpy/tpo/tpi), let the engine defer the rest of the loop
     * region and execute it in bulk, byte-identical to the per-cycle
     * path. Word protection makes every queue unstreamable, so a
     * cell built with parity never bursts and is never polled.
     */
    bool
    burstCapable() const override
    {
        return cfg.parity == fault::ParityMode::Off;
    }
    Cycle burstQuantum(Cycle from) override;
    void burstRun(Cycle from, Cycle cycles) override;

    /**
     * Snapshot support: serialize the full architectural state —
     * registers, sequencer, loop stack, in-flight pipeline results,
     * fault latches, FP exception flags and all seven queues. The
     * payload leads with the complete microcode store (entry ids plus
     * encoded instruction images), because kernels can be installed
     * at runtime (the conv2d planner generates per-geometry
     * microcode): a restore rebuilds exactly the store the snapshot
     * saw, whatever the fresh machine had installed. Decoded-body
     * caches (the fast tier) rebuild on demand and are not saved.
     */
    std::uint32_t stateVersion() const override { return 1; }
    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r, std::uint32_t version) override;

    /**
     * Fast-tier counters (bodies compiled, bursts, bulk iterations,
     * fallback reasons). A detached group — never registered under
     * the coprocessor's stats root, because burst engagement depends
     * on engine mode and flags while the stats JSON must not.
     */
    const stats::StatGroup &fastTierStats() const { return ftGroup; }

    // Observability.
    std::uint64_t issuedOps() const { return statIssued.value(); }
    std::uint64_t fmaOps() const { return statFma.value(); }
    std::uint64_t busyCycles() const { return statBusy.value(); }
    std::uint8_t fpFlags() const { return fpu->flags(); }

    /**
     * Architectural PMU readback (the same value the tpi status call
     * returns). Out-of-range registers read as zero.
     */
    std::uint64_t pmuRead(PmuReg reg) const;

    /** The cell's statistics subtree. */
    stats::StatGroup &stats() { return statGroup; }

    /**
     * Start emitting structured trace events (issue/retire/stall,
     * call begin/end, and FIFO traffic of all seven queues) into
     * @p t. Costs one null-pointer test per event site when detached.
     */
    void attachTracer(trace::Tracer *t);

    /** Local queues, exposed for white-box tests. */
    TimedFifo &sumQueue() { return _sum; }
    TimedFifo &retQueue() { return _ret; }
    TimedFifo &rebyQueue() { return _reby; }

    // --- fault injection and recovery ------------------------------

    /**
     * The reset line (the reserved resetCallEntry call decoded at the
     * tpi write port): drop every queue, reservation, in-flight
     * result and sequencer state, clear a hang or fault flag, keep
     * the microcode store, registers and statistics. A dead cell
     * stays dead.
     */
    void hardReset(Cycle now);

    /**
     * Host gave up on this cell: reset it so nothing is left pending
     * and take it out of the machine permanently (done() is true, it
     * never ticks again).
     */
    void markDead(Cycle now);

    /**
     * Freeze sequencer and writeback for @p duration cycles
     * (duration 0: permanently — the cell is faulted until a reset).
     * Queue pushes from the host still land; the machine just stops
     * consuming.
     */
    void injectHang(Cycle now, Cycle duration);

    /** The sequencer spontaneously drops back to Idle mid-kernel. */
    void injectSpuriousHalt(Cycle now);

    /**
     * Enter the faulted state: frozen until hardReset(). Raised by
     * queue protection errors, unknown call entries and permanent
     * hangs; without recovery the engine watchdog turns it into a
     * DeadlockError.
     */
    void enterFaulted(const char *why);

    bool faulted() const { return _faulted; }
    bool dead() const { return _dead; }
    std::uint64_t faultCount() const { return statFaults.value(); }
    std::uint64_t hardResets() const { return statHardResets.value(); }

  private:
    struct Kernel
    {
        isa::Program prog;
        unsigned nparams;
    };

    /** A value travelling through the FP or move pipeline. */
    struct InFlight
    {
        Cycle when;
        Word value;
        std::uint8_t dstMask;
        std::uint8_t dstReg;
    };

    enum class SeqState
    {
        Idle,       //!< waiting for a call word on tpi
        ReadParams, //!< popping parameter words
        Decode,     //!< fixed dispatch delay
        Run,        //!< executing microcode
        PmuRespond, //!< pushing a PMU register value to tpo
    };

    // -- helpers -------------------------------------------------------
    /** The local queues, the ones whose occupancy is tracked. */
    std::array<TimedFifo *, 3>
    localQueues()
    {
        return {&_sum, &_ret, &_reby};
    }
    TimedFifo *queueFor(isa::Src s);
    Word readOperand(const isa::Operand &op, Cycle now, Word mul_out);
    StallCause checkHazards(const isa::DecodedInstr &d, Cycle now) const;
    void issueCompute(const isa::Instr &in, const isa::DecodedInstr &d,
                      Cycle now);
    void emitStall(StallCause cause, Cycle now);
    void scheduleWrite(Cycle when, Word value, std::uint8_t mask,
                       std::uint8_t dst_reg, Cycle now);
    void drainWritebacks(Cycle now, sim::Engine &engine);
    bool stepControl(Cycle now);
    void tickSequencer(Cycle now, sim::Engine &engine);

    /**
     * One analyzed innermost-loop body (fast_tier.cc): the region
     * [bodyPc, endPc] (endPc = the LoopEnd) and, when the body is the
     * canonical steady-state chained fma of the compute-bound kernels
     * — one instruction `fma(<recirc local queue>, <reg/const>, <pop
     * local queue>, Dst<same queue>)`, e.g. matupdate's
     * `fma(rebyR, regAy, sum, DstSum)` — its turbo plan: burstRun()
     * executes such a body with direct ring operations and bulk
     * bookkeeping instead of the interpreter. Only turbo bodies burst.
     */
    struct FastBody
    {
        const Kernel *kernel = nullptr;
        std::size_t bodyPc = 0;
        std::size_t endPc = 0;
        bool turbo = false;
        TimedFifo *rotQ = nullptr; //!< recirculating mul operand
        TimedFifo *popQ = nullptr; //!< popped addend == destination
        std::uint8_t dstMask = 0;
        isa::Operand mulB{};       //!< register/constant operand
        isa::AddOp addOp = isa::AddOp::Add;
    };
    /** Analyses are keyed by (kernel, body pc). */
    using FastBodyKey = std::pair<const Kernel *, std::size_t>;
    struct FastBodyKeyHash
    {
        std::size_t operator()(const FastBodyKey &k) const;
    };
    /** Analyze (or fetch the cached analysis of) the innermost body. */
    const FastBody *fastBodyFor(std::size_t body_pc);

    // -- configuration and structure ------------------------------------
    CellConfig cfg;
    std::unique_ptr<FpUnit> fpu;

    TimedFifo _tpx;
    TimedFifo _tpy;
    TimedFifo _tpo;
    TimedFifo _tpi;
    TimedFifo _sum;
    TimedFifo _ret;
    TimedFifo _reby;

    /** Queue pointers indexed by isa::CellQueue (set in the ctor). */
    std::array<TimedFifo *, isa::numCellQueues> queueTab{};

    std::array<Word, isa::numRegs> regs{};
    std::array<bool, isa::numRegs> regPending{};
    Word regAy = 0;
    bool regAyPending = false;

    std::map<Word, Kernel> microcode;

    // -- sequencer state -------------------------------------------------
    SeqState state = SeqState::Idle;
    const Kernel *current = nullptr;
    std::size_t pc = 0;
    unsigned paramsToRead = 0;
    unsigned paramIndex = 0;
    unsigned decodeLeft = 0;
    bool pmuCall = false; //!< the current tpi call is a PMU read
    std::array<std::int32_t, isa::numParams> params{};

    struct LoopFrame
    {
        std::size_t bodyPc;       //!< first instruction of the body
        std::uint32_t remaining;  //!< iterations left after current
    };
    std::vector<LoopFrame> loopStack;

    // -- fault state -----------------------------------------------------
    bool _faulted = false; //!< frozen until hardReset()
    bool _broken = false;  //!< hard fault: re-faults after every reset
    bool _dead = false;    //!< permanently out of the machine
    Cycle hangUntil = 0;   //!< frozen while now < hangUntil
    std::string faultWhy;  //!< what flagged the fault (status line)

    /**
     * Analyzed loop bodies, invalidated by loadMicrocode() and
     * loadState(). Node-based, so a FastBody's address stays valid
     * across later analyses for as long as a deferred window holds it.
     */
    std::unordered_map<FastBodyKey, FastBody, FastBodyKeyHash> fastBodies;
    /** The most recent lookup (polls repeat it every busy cycle). */
    const FastBody *lastBody = nullptr;
    /** Body of the window the last granting burstQuantum() opened. */
    const FastBody *burstBody = nullptr;

    std::vector<InFlight> inflight;
    /**
     * Lower bound on the cycle at which any inflight writeback can
     * commit; drainWritebacks returns immediately before it. Updated
     * on scheduleWrite and after every drain pass.
     */
    Cycle wbReadyAt = sim::Component::noEvent;

    trace::Tracer *tracer = nullptr;
    std::uint16_t traceComp = 0;
    std::uint16_t callTrack = 0; //!< track of the running kernel's name

    // -- statistics -------------------------------------------------------
    stats::StatGroup statGroup;
    stats::Counter statIssued;
    stats::Counter statFma;
    stats::Counter statMulOnly;
    stats::Counter statAddOnly;
    stats::Counter statMoves;
    stats::Counter statBusy;
    stats::Counter statIdle;
    stats::Counter statStallSrc;
    stats::Counter statStallDst;
    stats::Counter statStallReg;
    stats::Counter statCalls;
    stats::Counter statWritePortConflicts;
    stats::Counter statHangCycles;
    stats::Counter statFaults;
    stats::Counter statHardResets;

    // Fast-tier diagnostics: a detached group (no parent), surfaced
    // only through fastTierStats().
    stats::StatGroup ftGroup;
    stats::Counter statFtCompiled;
    stats::Counter statFtIneligible;
    stats::Counter statFtBursts;
    stats::Counter statFtBurstCycles;
    stats::Counter statFtBurstIters;
    stats::Counter statFtTurboCycles;
    stats::Counter statFtFallbackBody;
};

} // namespace opac::cell

#endif // OPAC_CELL_CELL_HH
