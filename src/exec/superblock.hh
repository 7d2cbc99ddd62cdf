/**
 * @file
 * Superinstruction blocks: the shared ISA executor behind the
 * functional fast-forward engine (sampling::FunctionalEngine) and both
 * fidelities of cpu::Core (mpki and timing).
 *
 * A per-instruction opcode switch pays one hard-to-predict indirect
 * branch plus loop bookkeeping per dynamic instruction. This module
 * predecodes a DecodedImage one level further:
 *
 *  - straight-line runs are stitched into @ref Superblock records whose
 *    @ref SuperOp elements are handler indices with pre-extracted
 *    operands — hot idioms the workload generators emit (xorshift
 *    rotations, LCG multiply-accumulate, int-to-float RNG tails,
 *    FP accumulation pairs, counted-loop back-edges) fuse into single
 *    superinstruction handlers;
 *  - execution threads from handler to handler (computed goto on
 *    GCC/Clang, a function-pointer trampoline elsewhere) and from block
 *    to block without leaving the dispatch loop, so the interpreter
 *    carries roughly one indirect branch per superop instead of the
 *    switch's per-instruction branch plus bounds checks;
 *  - blocks entered, memory addresses and control-flow terminators
 *    are reported to a compile-time observer (NoBranchObserver below;
 *    exec/superblock_exec.hh): the functional engine passes a no-op
 *    one, the core feeds its direction predictor and the PBS context
 *    notes through it, and a timing core also records what its
 *    per-batch timing replay reads.
 *
 * Block formation rules (see also docs/architecture.md):
 *  - blocks start only at leaders (DecodedOp::kIsLeader: the entry
 *    point, every branch target, every PC after a control or prob op),
 *    so no branch can enter a block mid-way;
 *  - blocks end at any control opcode, at HALT, at prob-group
 *    boundaries (PROB_CMP and PROB_JMP both terminate, keeping prob
 *    groups out of fused handlers), and before the next leader;
 *  - an image built with excludeProbOps keeps every PROB_CMP/PROB_JMP
 *    out of blocks altogether: a block falls through to them and no
 *    block starts at them, so the executor returns there and the
 *    caller single-steps them on its own (PBS-steering) path;
 *  - fused handlers re-read the register file between the ops they
 *    merge, so every architectural write of the original sequence
 *    happens, in order, with identical aliasing/REG_ZERO semantics.
 *
 * Exactness contract: executing a block retires exactly instCount
 * instructions and leaves the same registers, memory, prob sequence
 * counters and branch counts as instCount single steps. Callers
 * single-step whenever a PC is not a block leader or a block does not
 * fit the remaining step budget, so step(n)/checkpoint capture stop at
 * exact instruction counts (tests/dispatch_equiv_test.cc,
 * tests/mpki_equiv_test.cc and the sampling_test checkpoint-boundary
 * suite enforce both properties).
 */

#ifndef PBS_EXEC_SUPERBLOCK_HH
#define PBS_EXEC_SUPERBLOCK_HH

#include <cstdint>
#include <vector>

#include "isa/decoded_image.hh"
#include "mem/memory.hh"

namespace pbs::exec {

/** How an engine executes instructions. */
enum class FuncDispatch : uint8_t {
    Superblock,          ///< stitched blocks, compiled-in threaded backend
    SuperblockPortable,  ///< stitched blocks, function-pointer trampoline
    Switch,              ///< reference per-instruction opcode switch
};

/**
 * Dispatch mode selected by the `PBS_FUNC_DISPATCH` environment
 * variable: "switch" and "superblock-portable" force those modes, any
 * other value (or unset) selects Superblock. Read on every call so
 * tests can flip it between engine constructions.
 */
FuncDispatch defaultFuncDispatch();

/** Stable name of @p d ("superblock", "superblock-portable", "switch"). */
const char *funcDispatchName(FuncDispatch d);

/** Handler index of a SuperOp. Generated from superblock_ops.inc. */
enum class SbHandler : uint16_t {
#define SB_OP(name, ...) name,
#define SB_TERM(name, ...) name,
#include "exec/superblock_ops.inc"
#undef SB_OP
#undef SB_TERM
    NUM_HANDLERS
};

/** First terminator handler (every handler >= this ends its block). */
constexpr uint16_t kSbFirstTerminator =
    static_cast<uint16_t>(SbHandler::T_FALL);

/**
 * One superinstruction: a handler index plus pre-extracted operands.
 * Fused pairs put the first op in rd/rs1/rs2/rs3/cmp/imm and the second
 * in rd2/rs4/rs5/imm2; sh1..sh3 are the F_XORSHIFT shift amounts.
 */
struct SuperOp
{
    uint16_t handler = 0;              ///< SbHandler index
    uint8_t count = 1;                 ///< instructions this superop retires
    uint8_t rd = 0, rs1 = 0, rs2 = 0, rs3 = 0;
    uint8_t rd2 = 0, rs4 = 0, rs5 = 0;
    uint8_t cmp = 0;                   ///< isa::CmpOp payload
    uint8_t sh1 = 0, sh2 = 0, sh3 = 0;
    uint16_t probId = 0;               ///< PROB_JMP sequence index
    uint32_t target = 0;               ///< resolved branch target
    int64_t imm = 0;                   ///< first-op immediate
    int64_t imm2 = 0;                  ///< second-op immediate
};

/** One stitched straight-line run. The last SuperOp is a terminator. */
struct Superblock
{
    uint32_t first = 0;      ///< index of the first SuperOp
    uint32_t nSops = 0;      ///< superops including the terminator
    uint32_t instCount = 0;  ///< architectural instructions retired
    uint64_t fall = 0;       ///< PC after the block's last instruction
};

/**
 * Mutable engine state the handlers execute against. The branch
 * counters accumulate across calls; callers fold them into their own
 * statistics.
 */
struct SbCtx
{
    uint64_t *regs = nullptr;          ///< register file (regs[0] == 0)
    mem::SparseMemory *mem = nullptr;
    uint64_t *probSeq = nullptr;       ///< per-probId dynamic counters
    bool *halted = nullptr;
    uint64_t branches = 0;             ///< conditional + prob branches
    uint64_t probBranches = 0;         ///< branching PROB_JMPs
    uint64_t fall = 0;                 ///< current block's fallthrough PC
    uint64_t next = 0;                 ///< out: PC execution stopped at
};

/**
 * Observer that ignores every event (the functional engine's). An
 * observer's hooks are compile-time calls that run in program order:
 *  - onBlock(block): each block entered, before its first handler;
 *  - onMem(ea): each LD/LDB/ST/STB's effective address, before the
 *    access;
 *  - onCond(pc, target, taken): JZ/JNZ, fused or not, at the
 *    terminator that retires it, with the branch's own PC;
 *  - onCfd(taken): CFD_JNZ's direction (it is never predicted);
 *  - onJump(pc, target), onCall(pc), onReturn(): JMP, CALL, RET.
 * The prob ops report nothing. The mpki core's observer (the direction
 * predictor and the PBS context notes) uses the branch hooks; the
 * timing core's adds a record of blocks, addresses and branch outcomes
 * from which cpu::Core replays its timing model after each run.
 */
struct NoBranchObserver
{
    void onBlock(const Superblock &) {}
    void onMem(uint64_t) {}
    void onCond(uint64_t, uint64_t, bool) {}
    void onCfd(bool) {}
    void onJump(uint64_t, uint64_t) {}
    void onCall(uint64_t) {}
    void onReturn() {}
};

/** The superblock-stitched form of one DecodedImage. */
class SuperblockImage
{
  public:
    static constexpr uint32_t kNoBlock = UINT32_MAX;

    /**
     * Stitch @p img into superblocks (one pass, no simulation state).
     * @param excludeProbOps leave every PROB_CMP/PROB_JMP outside the
     *        blocks (see the file comment).
     */
    static SuperblockImage build(const isa::DecodedImage &img,
                                 bool excludeProbOps = false);

    const std::vector<SuperOp> &sops() const { return sops_; }
    const std::vector<Superblock> &blocks() const { return blocks_; }

    /** Block starting at @p pc, or kNoBlock when @p pc is no leader. */
    uint32_t blockAt(uint64_t pc) const
    {
        return pc < blockAt_.size() ? blockAt_[pc] : kNoBlock;
    }

    const uint32_t *blockAtData() const { return blockAt_.data(); }
    uint64_t pcLimit() const { return blockAt_.size(); }

    /** Static stitching counters (introspection for tests/reports). */
    struct BuildStats
    {
        uint64_t blocks = 0;
        uint64_t superOps = 0;       ///< incl. terminators
        uint64_t instructions = 0;   ///< covered architectural instrs
        uint64_t fusedOps = 0;       ///< superops merging >= 2 instrs
        uint64_t fusedInstructions = 0;
    };
    const BuildStats &buildStats() const { return stats_; }

  private:
    std::vector<SuperOp> sops_;
    std::vector<Superblock> blocks_;
    std::vector<uint32_t> blockAt_;  ///< per-PC block index or kNoBlock
    BuildStats stats_;
};

}  // namespace pbs::exec

#endif  // PBS_EXEC_SUPERBLOCK_HH
