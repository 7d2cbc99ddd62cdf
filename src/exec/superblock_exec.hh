/**
 * @file
 * The superblock dispatch backends, templated on an observer (see
 * NoBranchObserver in exec/superblock.hh for the hooks). Include
 * this header only where an executor is instantiated: it expands
 * superblock_ops.inc into handler code.
 *
 * Both backends expand the same .inc; handler bodies see `ctx`, `obs`,
 * `op` and the accessor macros below. Reads index the register file
 * directly: regs[REG_ZERO] is architecturally pinned to 0 (every
 * writer guards it — SB_WR here, the write helpers of both single-step
 * paths — and each restoreArch re-normalizes), so no per-operand guard
 * is needed.
 */

#ifndef PBS_EXEC_SUPERBLOCK_EXEC_HH
#define PBS_EXEC_SUPERBLOCK_EXEC_HH

#include <cmath>
#include <cstdint>

#include "exec/superblock.hh"
#include "isa/arith.hh"

namespace pbs::exec {

#define SB_RR(r) (ctx.regs[r])
#define SB_WR(r, v)                                                    \
    do {                                                               \
        const uint8_t sb_r_ = (r);                                     \
        const uint64_t sb_v_ = (v);                                    \
        if (sb_r_ != pbs::isa::REG_ZERO)                               \
            ctx.regs[sb_r_] = sb_v_;                                   \
    } while (0)
#define SB_RD(r) (pbs::isa::bitsToDouble(ctx.regs[r]))
#define SB_WD(r, v) SB_WR(r, pbs::isa::doubleBits(v))
#define SB_COND(taken)                                                 \
    do {                                                               \
        const bool sb_t_ = (taken);                                    \
        ctx.branches++;                                                \
        obs.onCond(ctx.fall - 1, op->target, sb_t_);                   \
        ctx.next = sb_t_ ? op->target : ctx.fall;                      \
    } while (0)

namespace detail {

template <class Obs>
using SbFn = const SuperOp *(*)(SbCtx &, Obs &, const SuperOp *);

#define SB_OP(name, ...)                                               \
    template <class Obs>                                               \
    const SuperOp *sbh_##name(SbCtx &ctx, Obs &obs, const SuperOp *op) \
    {                                                                  \
        (void)ctx;                                                     \
        (void)obs;                                                     \
        (void)op;                                                      \
        { __VA_ARGS__ }                                                \
        return op + 1;                                                 \
    }
#define SB_TERM(name, ...)                                             \
    template <class Obs>                                               \
    const SuperOp *sbh_##name(SbCtx &ctx, Obs &obs, const SuperOp *op) \
    {                                                                  \
        (void)ctx;                                                     \
        (void)obs;                                                     \
        (void)op;                                                      \
        { __VA_ARGS__ }                                                \
        return nullptr;                                                \
    }
#include "exec/superblock_ops.inc"
#undef SB_OP
#undef SB_TERM

template <class Obs>
inline constexpr SbFn<Obs> kSbTable[] = {
#define SB_OP(name, ...) sbh_##name<Obs>,
#define SB_TERM(name, ...) sbh_##name<Obs>,
#include "exec/superblock_ops.inc"
#undef SB_OP
#undef SB_TERM
};

static_assert(sizeof(kSbTable<NoBranchObserver>) /
                      sizeof(kSbTable<NoBranchObserver>[0]) ==
                  static_cast<size_t>(SbHandler::NUM_HANDLERS),
              "handler table out of sync with SbHandler");

}  // namespace detail

/**
 * Execute superblocks through the portable function-pointer
 * trampoline, starting at @p pc, until the program halts, a PC that is
 * not a block leader is reached, the next block would exceed @p budget
 * retired instructions, or the PC leaves the image.
 *
 * Preconditions: blockAt(pc) != kNoBlock and that block's instCount is
 * <= @p budget (callers single-step otherwise).
 *
 * @return the number of instructions retired; ctx.next holds the PC
 *         execution stopped at.
 */
template <class Obs>
uint64_t
sbExecPortable(const SuperblockImage &img, uint64_t pc, uint64_t budget,
               SbCtx &ctx, Obs &obs)
{
    const SuperOp *sops = img.sops().data();
    const Superblock *blocks = img.blocks().data();
    const uint32_t *blockAt = img.blockAtData();
    const uint64_t pcLimit = img.pcLimit();

    uint64_t executed = 0;
    const Superblock *b = &blocks[blockAt[pc]];
    while (true) {
        obs.onBlock(*b);
        executed += b->instCount;
        ctx.fall = b->fall;
        const SuperOp *op = &sops[b->first];
        while (op)
            op = detail::kSbTable<Obs>[op->handler](ctx, obs, op);
        if (*ctx.halted || ctx.next >= pcLimit)
            return executed;
        const uint32_t bi = blockAt[ctx.next];
        if (bi == SuperblockImage::kNoBlock)
            return executed;
        b = &blocks[bi];
        if (executed + b->instCount > budget)
            return executed;
    }
}

#if defined(PBS_HAVE_COMPUTED_GOTO)

/** Same contract as sbExecPortable, threaded through computed goto. */
template <class Obs>
uint64_t
sbExecThreaded(const SuperblockImage &img, uint64_t pc, uint64_t budget,
               SbCtx &ctx, Obs &obs)
{
    // One label per handler, in SbHandler order (same .inc expansion
    // order as the enum). Execution threads label-to-label inside a
    // block and block-to-block through sb_chain without ever leaving
    // this frame: the only indirect branches are the goto *s.
    static const void *kLabels[] = {
#define SB_OP(name, ...) &&L_##name,
#define SB_TERM(name, ...) &&L_##name,
#include "exec/superblock_ops.inc"
#undef SB_OP
#undef SB_TERM
    };

    const SuperOp *sops = img.sops().data();
    const Superblock *blocks = img.blocks().data();
    const uint32_t *blockAt = img.blockAtData();
    const uint64_t pcLimit = img.pcLimit();

    const Superblock *b = &blocks[blockAt[pc]];
    obs.onBlock(*b);
    uint64_t executed = b->instCount;
    ctx.fall = b->fall;
    const SuperOp *op = &sops[b->first];
    goto *kLabels[op->handler];

#define SB_OP(name, ...)                                               \
    L_##name: {                                                        \
        { __VA_ARGS__ }                                                \
        ++op;                                                          \
        goto *kLabels[op->handler];                                    \
    }
#define SB_TERM(name, ...)                                             \
    L_##name: {                                                        \
        { __VA_ARGS__ }                                                \
        goto sb_chain;                                                 \
    }
#include "exec/superblock_ops.inc"
#undef SB_OP
#undef SB_TERM

  sb_chain:
    if (!*ctx.halted && ctx.next < pcLimit) {
        const uint32_t bi = blockAt[ctx.next];
        if (bi != SuperblockImage::kNoBlock) {
            b = &blocks[bi];
            if (executed + b->instCount <= budget) {
                obs.onBlock(*b);
                executed += b->instCount;
                ctx.fall = b->fall;
                op = &sops[b->first];
                goto *kLabels[op->handler];
            }
        }
    }
    return executed;
}

#else  // !PBS_HAVE_COMPUTED_GOTO

/** No labels-as-values: the threaded backend is the trampoline. */
template <class Obs>
uint64_t
sbExecThreaded(const SuperblockImage &img, uint64_t pc, uint64_t budget,
               SbCtx &ctx, Obs &obs)
{
    return sbExecPortable(img, pc, budget, ctx, obs);
}

#endif  // PBS_HAVE_COMPUTED_GOTO

/** The backend @p d selects (Superblock or SuperblockPortable). */
template <class Obs>
uint64_t
sbExec(FuncDispatch d, const SuperblockImage &img, uint64_t pc,
       uint64_t budget, SbCtx &ctx, Obs &obs)
{
    return d == FuncDispatch::SuperblockPortable
        ? sbExecPortable(img, pc, budget, ctx, obs)
        : sbExecThreaded(img, pc, budget, ctx, obs);
}

#undef SB_RR
#undef SB_WR
#undef SB_RD
#undef SB_WD
#undef SB_COND

}  // namespace pbs::exec

#endif  // PBS_EXEC_SUPERBLOCK_EXEC_HH
