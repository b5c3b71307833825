/**
 * @file
 * A microcode program: a validated sequence of microinstructions that
 * implements one compute-bound kernel (the paper's task granularity).
 */

#ifndef OPAC_ISA_PROGRAM_HH
#define OPAC_ISA_PROGRAM_HH

#include <string>
#include <vector>

#include "isa/instr.hh"

namespace opac::isa
{

/** Maximum hardware loop nesting supported by the sequencer. */
constexpr unsigned maxLoopDepth = 8;

/** Number of parameter registers. */
constexpr unsigned numParams = 16;

/** Number of entries in the multiport register file. */
constexpr unsigned numRegs = 32;

/**
 * Cell FIFO queues addressable by microcode operands, in the fixed
 * order the cell's hazard logic space-checks them (the cell keeps a
 * pointer table in this order).
 */
enum class CellQueue : std::uint8_t
{
    Sum,
    Ret,
    Reby,
    TpO,
    TpX,
    TpY,
};

/** Number of CellQueue values. */
constexpr unsigned numCellQueues = 6;

/** The queue an operand kind pops, or numCellQueues for none. */
constexpr unsigned
cellQueueOf(Src s)
{
    switch (s) {
      case Src::TpX:
        return unsigned(CellQueue::TpX);
      case Src::TpY:
        return unsigned(CellQueue::TpY);
      case Src::Sum:
      case Src::SumR:
        return unsigned(CellQueue::Sum);
      case Src::Ret:
      case Src::RetR:
        return unsigned(CellQueue::Ret);
      case Src::Reby:
      case Src::RebyR:
        return unsigned(CellQueue::Reby);
      default:
        return numCellQueues;
    }
}

/** True for the head-to-tail loop-back read kinds (pop + repush). */
constexpr bool
isRecirc(Src s)
{
    return s == Src::SumR || s == Src::RetR || s == Src::RebyR;
}

/** One pre-resolved operand read of the issue-time hazard scan. */
struct DecodedRead
{
    enum class Kind : std::uint8_t
    {
        Queue, //!< pop (or recirculate) a FIFO queue
        RegAy, //!< read regay
        Reg,   //!< read register file entry [reg]
    };

    Kind kind = Kind::Queue;
    std::uint8_t queue = 0; //!< CellQueue index when kind == Queue
    std::uint8_t reg = 0;   //!< register index when kind == Reg
};

/**
 * The pre-decoded form of one Compute instruction: the hazard checks
 * the sequencer performs every cycle the instruction is at the issue
 * stage, resolved once at microcode-load time so the per-cycle scan
 * stops re-switching on operand kinds. The read list preserves the
 * operand order (mulA, mulB, addA, addB, mvSrc) so the reported stall
 * cause is identical to the un-decoded scan.
 */
struct DecodedInstr
{
    DecodedRead reads[5];
    std::uint8_t numReads = 0;

    /** Queues with a positive net space requirement at issue. */
    struct Need
    {
        std::uint8_t queue;  //!< CellQueue index
        std::uint8_t amount; //!< slots required
    };
    Need needs[4];
    std::uint8_t numNeeds = 0;

    /** WAW interlock: registers this instruction writes. */
    bool wawAy = false;
    std::uint8_t wawRegs[2] = {0, 0};
    std::uint8_t numWawRegs = 0;

    /** Datapath activation, precomputed from the operand kinds. */
    bool mulActive = false;
    bool addActive = false;
    bool mvActive = false;
    bool addAFromMul = false; //!< addA is Src::MulOut
};

/** A named, validated microinstruction sequence. */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }
    void setName(std::string n) { _name = std::move(n); }

    const std::vector<Instr> &instrs() const { return _instrs; }
    std::size_t size() const { return _instrs.size(); }
    const Instr &at(std::size_t pc) const { return _instrs[pc]; }

    void
    append(const Instr &i)
    {
        _instrs.push_back(i);
        _decoded.clear();
    }

    /** Mutable access to the most recently appended instruction. */
    Instr &lastInstr() { return _instrs.back(); }

    /**
     * Build the decoded-instruction cache (idempotent). Call after
     * validate(); the cell's microcode loader does this once per
     * kernel. append() invalidates the cache.
     */
    void decode();

    /** True once decode() has run on the current instructions. */
    bool decoded() const { return _decoded.size() == _instrs.size(); }

    /** The decoded form of the instruction at @p pc; requires decode(). */
    const DecodedInstr &
    decodedAt(std::size_t pc) const
    {
        return _decoded[pc];
    }

    /**
     * Check the structural rules of the micro-ISA; throws (fatal) with a
     * descriptive message on the first violation:
     *  - loops properly nested, matched and within maxLoopDepth;
     *  - per instruction, at most one pop and one push per FIFO queue
     *    (the queues are dual-ported: one read + one write port);
     *  - multiplier/adder operand pairing rules (MulOut only as adder
     *    input A, and only when the multiplier is active);
     *  - register indices within range;
     *  - the program ends with Halt and has no trailing garbage.
     */
    void validate() const;

  private:
    std::string _name;
    std::vector<Instr> _instrs;
    std::vector<DecodedInstr> _decoded;
};

} // namespace opac::isa

#endif // OPAC_ISA_PROGRAM_HH
