#include "cpu/core.hh"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "bpred/factory.hh"
#include "exec/superblock_exec.hh"
#include "isa/arith.hh"
#include "isa/assembler.hh"

namespace pbs::cpu {

using isa::CmpOp;
using isa::DecodedOp;
using isa::FuKind;
using isa::Instruction;
using isa::LatKind;
using isa::Opcode;

namespace {

/**
 * Enforce a per-cycle event-count limit: returns a cycle >= atLeast with
 * fewer than @p width events already booked, keeping @p lastCycle
 * monotonic. Written without data-dependent branches: the timing
 * replay runs it three times per instruction.
 */
inline uint64_t
bandwidthLimit(uint64_t &lastCycle, unsigned &count, unsigned width,
               uint64_t atLeast)
{
    uint64_t c = std::max(atLeast, lastCycle);
    c += (c == lastCycle) & (count >= width);
    count = c == lastCycle ? count + 1 : 1;
    lastCycle = c;
    return c;
}

using isa::signedDiv;
using isa::signedRem;

}  // namespace

Core::Core(const isa::Program &prog, const CoreConfig &cfg)
    : prog_(prog), image_(isa::DecodedImage::decode(prog_)), cfg_(cfg),
      hierarchy_(cfg.memory), pbs_(cfg.pbs)
{
    pred_ = bpred::makePredictor(cfg_.predictor);
    predIsPerfect_ = pred_->isPerfect();
    if (cfg_.filterProbFromPredictor)
        sidePred_ = std::make_unique<bpred::StaticPredictor>(false);

    pbs_.setEnabled(cfg_.pbsEnabled);
    pc_ = prog_.entry;

    // Both fidelities on the predecoded path run on the superblock
    // executor; the timing fidelity replays its timing per batch. Prob
    // ops stay outside the blocks: stepOneOn owns PBS steering, which
    // needs the exact fetch cycle, so they single-step through it.
    if (cfg_.execPath == ExecPath::Decoded) {
        dispatch_ = exec::defaultFuncDispatch();
        if (dispatch_ != exec::FuncDispatch::Switch) {
            sb_ = std::make_unique<exec::SuperblockImage>(
                exec::SuperblockImage::build(image_,
                                             /*excludeProbOps=*/true));
            if (cfg_.mode == SimMode::Timing)
                batch_ = std::make_unique<Batch>();
        }
    }

    for (const auto &[addr, bytes] : prog_.dataInit)
        mem_.writeBlock(addr, bytes);

    // Legacy-path metadata: map each PROB_CMP to its closing PROB_JMP
    // (the Prob-BTB key). The predecoded path carries this per-op.
    if (cfg_.execPath == ExecPath::LegacyProgram) {
        for (size_t i = 0; i < prog_.insts.size(); i++) {
            if (prog_.insts[i].op != Opcode::PROB_CMP)
                continue;
            for (size_t j = i + 1; j < prog_.insts.size(); j++) {
                const Instruction &inst = prog_.insts[j];
                if (inst.op == Opcode::PROB_JMP &&
                    inst.probId == prog_.insts[i].probId &&
                    !inst.isCarrierProbJmp()) {
                    probJmpOf_[i] = j;
                    break;
                }
            }
        }
    }

    probGroups_.assign(size_t(image_.maxProbId()) + 1, ProbGroup{});
    probSeq_.assign(size_t(image_.maxProbId()) + 1, 0);

    latOf_[size_t(LatKind::IntAlu)] = cfg_.lat.intAlu;
    latOf_[size_t(LatKind::IntMul)] = cfg_.lat.intMul;
    latOf_[size_t(LatKind::IntDiv)] = cfg_.lat.intDiv;
    latOf_[size_t(LatKind::FpAlu)] = cfg_.lat.fpAlu;
    latOf_[size_t(LatKind::FpMul)] = cfg_.lat.fpMul;
    latOf_[size_t(LatKind::FpDiv)] = cfg_.lat.fpDiv;
    latOf_[size_t(LatKind::FpSqrt)] = cfg_.lat.fpSqrt;
    latOf_[size_t(LatKind::FpTrans)] = cfg_.lat.fpTrans;
    latOf_[size_t(LatKind::LoadBase)] = 1;  // + memory latency
    latOf_[size_t(LatKind::Store)] = cfg_.lat.store;

    fuFreeAt_[size_t(FuKind::IntAlu)].assign(cfg_.pools.intAlu, 0);
    fuFreeAt_[size_t(FuKind::IntMul)].assign(cfg_.pools.intMul, 0);
    fuFreeAt_[size_t(FuKind::IntDiv)].assign(cfg_.pools.intDiv, 0);
    fuFreeAt_[size_t(FuKind::FpAlu)].assign(cfg_.pools.fpAlu, 0);
    fuFreeAt_[size_t(FuKind::FpMul)].assign(cfg_.pools.fpMul, 0);
    fuFreeAt_[size_t(FuKind::FpDiv)].assign(cfg_.pools.fpDiv, 0);
    fuFreeAt_[size_t(FuKind::Load)].assign(cfg_.pools.loadPorts, 0);
    fuFreeAt_[size_t(FuKind::Store)].assign(cfg_.pools.storePorts, 0);

    commitRing_.assign(cfg_.robSize, 0);

    if (cfg_.traceProbBranches)
        probTrace_.reserve(4096);
}

double
Core::regDouble(unsigned r) const
{
    return isa::bitsToDouble(regs_[r]);
}

ArchState
Core::saveArch() const
{
    ArchState s;
    s.regs = regs_;
    s.pc = pc_;
    s.halted = halted_;
    s.instructions = stats_.instructions;
    s.mem = mem_;
    s.probSeq = probSeq_;
    return s;
}

void
Core::restoreArch(const ArchState &state)
{
    if (state.probSeq.size() != probSeq_.size()) {
        throw std::invalid_argument(
            "restoreArch: state captured from a different program "
            "(probSeq size mismatch)");
    }
    regs_ = state.regs;
    // The superblock handlers read regs_[REG_ZERO] unguarded; pin it
    // as FunctionalEngine::restoreArch does.
    regs_[isa::REG_ZERO] = 0;
    pc_ = state.pc;
    halted_ = state.halted;
    mem_ = state.mem;
    probSeq_ = state.probSeq;
    // Groups open at capture resume unmanaged (exact PBS-off
    // semantics); see cpu/arch_state.hh.
    for (ProbGroup &g : probGroups_)
        g = ProbGroup{};
}

void
Core::writeReg(unsigned r, uint64_t v)
{
    if (r != isa::REG_ZERO)
        regs_[r] = v;
}

void
Core::writeRegD(unsigned r, double v)
{
    writeReg(r, isa::doubleBits(v));
}

bool
Core::evalCmp(CmpOp op, uint64_t a, uint64_t b)
{
    return isa::evalCmp(op, a, b);
}

Core::FuSpec
Core::fuSpecFor(const Instruction &inst) const
{
    // Legacy reference path: re-derive the FU class and latency from
    // the opcode on every dynamic instruction.
    const Latencies &lat = cfg_.lat;
    switch (inst.op) {
      case Opcode::MUL:
        return {FuKind::IntMul, lat.intMul, true};
      case Opcode::DIV:
      case Opcode::REM:
        return {FuKind::IntDiv, lat.intDiv, false};
      case Opcode::FADD:
      case Opcode::FSUB:
      case Opcode::FMIN:
      case Opcode::FMAX:
      case Opcode::FNEG:
      case Opcode::FABS:
      case Opcode::I2F:
      case Opcode::F2I:
        return {FuKind::FpAlu, lat.fpAlu, true};
      case Opcode::FMUL:
        return {FuKind::FpMul, lat.fpMul, true};
      case Opcode::FDIV:
        return {FuKind::FpDiv, lat.fpDiv, false};
      case Opcode::FSQRT:
        return {FuKind::FpDiv, lat.fpSqrt, false};
      case Opcode::FEXP:
      case Opcode::FLOG:
      case Opcode::FSIN:
      case Opcode::FCOS:
        return {FuKind::FpDiv, lat.fpTrans, false};
      case Opcode::LD:
      case Opcode::LDB:
        return {FuKind::Load, 1, true};  // + memory latency
      case Opcode::ST:
      case Opcode::STB:
        return {FuKind::Store, lat.store, true};
      default:
        return {FuKind::IntAlu, lat.intAlu, true};
    }
}

Core::FuSpec
Core::opFuSpec(const Core &c, const DecodedOp &op)
{
    return {op.fu, c.latOf_[size_t(op.lat)], !op.unpipelined()};
}

Core::FuSpec
Core::opFuSpec(const Core &c, const Instruction &op)
{
    return c.fuSpecFor(op);
}

unsigned
Core::opSrcRegs(const DecodedOp &op, std::array<uint8_t, 3> &srcs)
{
    srcs[0] = op.srcs[0];
    srcs[1] = op.srcs[1];
    srcs[2] = op.srcs[2];
    return op.nsrc;
}

unsigned
Core::opSrcRegs(const Instruction &op, std::array<uint8_t, 3> &srcs)
{
    return op.sourceRegs(srcs);
}

uint64_t
Core::opProbJmpPc(const DecodedOp &op, uint64_t) const
{
    return op.probJmpPc;
}

uint64_t
Core::opProbJmpPc(const Instruction &, uint64_t pc) const
{
    auto it = probJmpOf_.find(pc);
    return it != probJmpOf_.end() ? it->second : pc;
}

inline uint64_t
Core::fetchStep(Pipe &p, uint64_t pc)
{
    uint64_t at_least = std::max(p.fetchCycle, p.frontendReadyAt);
    uint64_t f = bandwidthLimit(p.fetchCycle, p.fetchedInCycle,
                                cfg_.width, at_least);

    // I-cache: charge extra latency when entering a new line.
    uint64_t byte_addr = kTextBase + pc * 8;
    uint64_t line = byte_addr >> 6;
    if (line != p.lastFetchLine) {
        p.lastFetchLine = line;
        unsigned latency = hierarchy_.instAccess(byte_addr);
        hierarchy_.instPrefetch(byte_addr + 64);  // next-line prefetch
        unsigned hit = cfg_.memory.l1i.hitLatency;
        if (latency > hit) {
            f += latency - hit;
            p.fetchCycle = f;
            p.fetchedInCycle = 1;
        }
    }
    return f;
}

inline uint64_t
Core::issueStep(Pipe &p, const FuSpec &spec, const uint8_t *srcs,
                uint64_t fetch, uint64_t memLatency)
{
    // Dispatch: frontend depth, dispatch bandwidth, ROB occupancy.
    uint64_t d = bandwidthLimit(p.lastDispatchCycle, p.dispatchedInCycle,
                                cfg_.width, fetch + cfg_.frontendDepth);
    // commitRing_[robSlot] holds the commit cycle of the instruction
    // robSize before this one, once there is one.
    if (p.robFull)
        d = std::max(d, commitRing_[p.robSlot] + 1);

    // Fetch backpressure: a bounded fetch queue keeps fetch from running
    // arbitrarily ahead of dispatch.
    uint64_t slack = cfg_.frontendDepth + 2 * cfg_.width;
    if (d > slack)
        p.fetchCycle = std::max(p.fetchCycle, d - slack);

    // Register dependences (renaming = last-writer tracking). The
    // source array is always padded to 3 entries with REG_ZERO, and
    // regReady_[REG_ZERO] is invariantly 0, so the three maxes are
    // unconditional (branchless) and unused slots are no-ops.
    uint64_t ready = d;
    ready = std::max(ready, regReady_[srcs[0]]);
    ready = std::max(ready, regReady_[srcs[1]]);
    ready = std::max(ready, regReady_[srcs[2]]);

    // Issue on the earliest-free unit of the class (lowest index on a
    // tie).
    unsigned latency = unsigned(spec.latency + memLatency);
    auto &units = fuFreeAt_[size_t(spec.cls)];
    size_t best = 0;
    for (size_t i = 1; i < units.size(); i++) {
        if (units[i] < units[best])
            best = i;
    }
    uint64_t issue = std::max(ready, units[best]);
    units[best] = issue + (spec.pipelined ? 1 : latency);
    return issue + latency;
}

inline void
Core::redirect(Pipe &p, uint64_t resolveCycle) const
{
    p.frontendReadyAt = std::max(p.frontendReadyAt,
                                 resolveCycle + cfg_.mispredictPenalty);
}

inline void
Core::retireStep(Pipe &p, int dst, uint64_t fetch, uint64_t done,
                 bool endsGroup)
{
    // Publish destination readiness for dependents.
    if (dst > 0)
        regReady_[dst] = done;

    // At most one taken branch per fetch cycle: the next instruction
    // starts a new fetch group.
    if (endsGroup && p.fetchCycle <= fetch) {
        p.fetchCycle = fetch + 1;
        p.fetchedInCycle = 0;
    }

    uint64_t c = bandwidthLimit(p.lastCommitCycle, p.committedInCycle,
                                cfg_.width, done + 1);
    commitRing_[p.robSlot] = c;
    if (++p.robSlot == cfg_.robSize) {
        p.robSlot = 0;
        p.robFull = true;
    }
}

inline uint64_t
Core::storeDepReady(uint64_t key) const
{
    const StoreIdxEntry &ie = storeIdx_[storeIdxSlot(key)];
    if (ie.key == key) {
        // Newest store to this address; expired = absent.
        return storeSeq_ - ie.seq < kStoreQueueDepth ? ie.done : 0;
    }
    // A colliding key evicted this key's index entry: fall back to the
    // exact scan. An empty slot means no store ever hashed here, so
    // this address was never stored: absence proven.
    return ie.key != kNoStoreKey ? scanStoreQueue(key) : 0;
}

uint64_t
Core::scanStoreQueue(uint64_t key) const
{
    for (unsigned k = 0; k < storeCount_; k++) {
        const auto &e = storeQueue_[
            (storeHead_ + kStoreQueueDepth - 1 - k) % kStoreQueueDepth];
        if (e.first == key)
            return e.second;
    }
    return 0;
}

inline void
Core::pushStore(uint64_t key, uint64_t done)
{
    storeQueue_[storeHead_] = {key, done};
    storeHead_ = (storeHead_ + 1) % kStoreQueueDepth;
    if (storeCount_ < kStoreQueueDepth)
        storeCount_++;
    StoreIdxEntry &ie = storeIdx_[storeIdxSlot(key)];
    ie.key = key;
    ie.seq = ++storeSeq_;
    ie.done = done;
}

bool
Core::predictAndTrain(uint64_t pc, bool taken, bool isProb)
{
    bool predicted;
    if (isProb && cfg_.filterProbFromPredictor) {
        predicted = sidePred_->predict(pc);
        sidePred_->update(pc, taken);
    } else if (predIsPerfect_) {
        predicted = taken;
    } else {
        predicted = pred_->predict(pc);
        pred_->update(pc, taken);
    }

    if (predicted == taken)
        return false;
    stats_.mispredicts++;
    if (isProb)
        stats_.probMispredicts++;
    else
        stats_.regularMispredicts++;
    return true;
}

void
Core::run()
{
    while (!halted_) {
        if (cfg_.maxInstructions &&
            stats_.instructions >= cfg_.maxInstructions) {
            break;
        }
        if (sb_) {
            stepSuper(cfg_.maxInstructions
                          ? cfg_.maxInstructions - stats_.instructions
                          : UINT64_MAX);
        } else {
            stepOne();
        }
    }
}

uint64_t
Core::step(uint64_t n)
{
    if (sb_)
        return stepSuper(n);
    uint64_t executed = 0;
    while (!halted_ && executed < n) {
        stepOne();
        executed++;
    }
    return executed;
}

/**
 * Exactly the predictor and PBS context calls stepOneOn makes for
 * JZ/JNZ, JMP, CALL and RET, in the same order (the mpki fidelity's
 * observer). The block, address and CFD hooks are the no-ops.
 */
struct Core::BranchObserver : exec::NoBranchObserver
{
    Core &core;

    explicit BranchObserver(Core &c) : core(c) {}

    bool
    cond(uint64_t pc, uint64_t target, bool taken)
    {
        const bool mispredicted = core.predictAndTrain(pc, taken, false);
        if (core.cfg_.pbsEnabled)
            core.pbs_.noteBranch(pc, target, taken);
        return mispredicted;
    }

    void
    onCond(uint64_t pc, uint64_t target, bool taken)
    {
        cond(pc, target, taken);
    }

    void
    onJump(uint64_t pc, uint64_t target)
    {
        if (core.cfg_.pbsEnabled)
            core.pbs_.noteBranch(pc, target, true);
    }

    void
    onCall(uint64_t pc)
    {
        if (core.cfg_.pbsEnabled)
            core.pbs_.noteCall(pc);
    }

    void
    onReturn()
    {
        if (core.cfg_.pbsEnabled)
            core.pbs_.noteReturn();
    }
};

/**
 * The timing fidelity's observer: the same predictor and PBS calls,
 * plus the batch record replayTiming reads (every block entered, every
 * LD/ST address, and every JZ/JNZ/CFD_JNZ outcome, in program order).
 */
struct Core::TimingObserver : BranchObserver
{
    Batch &rec;
    uint32_t nBlocks = 0;
    uint32_t nAddrs = 0;
    uint32_t nOutcomes = 0;

    TimingObserver(Core &c, Batch &b) : BranchObserver(c), rec(b) {}

    void onBlock(const exec::Superblock &b) { rec.blocks[nBlocks++] = &b; }
    void onMem(uint64_t ea) { rec.addrs[nAddrs++] = ea; }

    void
    onCond(uint64_t pc, uint64_t target, bool taken)
    {
        const bool mispredicted = cond(pc, target, taken);
        rec.outcomes[nOutcomes++] =
            uint8_t((taken ? kTaken : 0) |
                    (mispredicted ? kMispredicted : 0));
    }

    void
    onCfd(bool taken)
    {
        rec.outcomes[nOutcomes++] = taken ? kTaken : 0;
    }
};

void
Core::replayTiming(const TimingObserver &obs)
{
    Pipe p = pipe_;
    const DecodedOp *ops = image_.ops().data();
    const uint64_t *addr = obs.rec.addrs.data();
    const uint8_t *outcome = obs.rec.outcomes.data();
    for (uint32_t k = 0; k < obs.nBlocks; k++) {
        const exec::Superblock &b = *obs.rec.blocks[k];
        for (uint64_t pc = b.fall - b.instCount; pc < b.fall; pc++) {
            const DecodedOp &op = ops[pc];
            const uint64_t f = fetchStep(p, pc);
            uint64_t key = 0;
            uint64_t memLat = 0;
            uint64_t depReady = 0;
            if (op.isLoad() || op.isStore()) {
                const uint64_t ea = *addr++;
                key = ea >> 3;
                memLat = op.isLoad() ? hierarchy_.dataAccess(ea) : 0;
                depReady = storeDepReady(key);
            }
            const uint64_t done = std::max(
                issueStep(p, opFuSpec(*this, op), op.srcs, f, memLat),
                depReady);

            bool endsGroup = false;
            switch (op.op) {
              case Opcode::JZ:
              case Opcode::JNZ:
                if (*outcome & kMispredicted)
                    redirect(p, done);
                [[fallthrough]];
              case Opcode::CFD_JNZ:
                endsGroup = *outcome++ & kTaken;
                break;
              case Opcode::JMP:
              case Opcode::CALL:
              case Opcode::RET:
                endsGroup = true;
                break;
              default:
                break;
            }
            if (op.isStore())
                pushStore(key, done);
            retireStep(p, op.destReg(), f, done, endsGroup);
        }
    }
    pipe_ = p;
    stats_.cycles = p.lastCommitCycle;
}

uint64_t
Core::stepSuper(uint64_t n)
{
    const exec::SuperblockImage &sb = *sb_;
    exec::SbCtx ctx;
    ctx.regs = regs_.data();
    ctx.mem = &mem_;
    ctx.probSeq = probSeq_.data();
    ctx.halted = &halted_;

    uint64_t executed = 0;
    while (!halted_ && executed < n) {
        const uint32_t bi = sb.blockAt(pc_);
        // A timing core's run is bounded by its batch record.
        const uint64_t budget =
            batch_ ? std::min(n - executed, kBatch) : n - executed;
        if (bi != exec::SuperblockImage::kNoBlock &&
            sb.blocks()[bi].instCount <= budget) {
            // Chain whole blocks while they fit the budget. They hold
            // no prob ops, so only the branch counter moves.
            uint64_t k;
            if (batch_) {
                TimingObserver obs(*this, *batch_);
                k = exec::sbExec(dispatch_, sb, pc_, budget, ctx, obs);
                replayTiming(obs);
            } else {
                BranchObserver obs(*this);
                k = exec::sbExec(dispatch_, sb, pc_, budget, ctx, obs);
            }
            executed += k;
            stats_.instructions += k;
            if (!batch_)
                stats_.cycles = stats_.instructions;
            stats_.branches += ctx.branches;
            ctx.branches = 0;
            pc_ = ctx.next;
        } else {
            // Prob ops, epilogues and mid-block entries: one
            // instruction through stepOneOn, which keeps the PBS fetch
            // cycle exact and throws on a PC out of range.
            stepOne();
            executed++;
        }
    }
    return executed;
}

void
Core::stepOne()
{
    if (pc_ >= image_.size())
        throw std::out_of_range("PC out of range: " + std::to_string(pc_));

    if (cfg_.execPath == ExecPath::Decoded)
        stepOneOn(image_.at(pc_));
    else
        stepOneOn(prog_.insts[pc_]);
}

template <class Op>
void
Core::stepOneOn(const Op &inst)
{
    const uint64_t this_pc = pc_;
    uint64_t next_pc = pc_ + 1;

    const bool timing = cfg_.mode == SimMode::Timing;
    Pipe &p = pipe_;
    uint64_t f = timing ? fetchStep(p, this_pc) : stats_.instructions;
    auto func_done = [&] { return f + cfg_.functionalExecDelay; };

    // The PBS steering decision happens at fetch: query the engine
    // before the timing pass so a stallOnBusy delay is charged to this
    // instruction's fetch cycle.
    std::optional<core::PbsInstance> prob_fetch;
    if (inst.op == Opcode::PROB_CMP && cfg_.pbsEnabled) {
        uint64_t jmp_pc = opProbJmpPc(inst, this_pc);
        prob_fetch = pbs_.onProbCmpFetch(jmp_pc, f);
        if (prob_fetch->stallCycles > 0 && timing) {
            f += prob_fetch->stallCycles;
            if (p.fetchCycle < f) {
                p.fetchCycle = f;
                p.fetchedInCycle = 1;
            }
        }
    }

    uint64_t mem_lat = 0;
    uint64_t mem_dep_ready = 0;

    // Pre-compute load/store addresses (needed for cache latencies and
    // store-to-load dependences before the timing pass).
    uint64_t ea = 0;
    if (inst.isLoad() || inst.isStore()) {
        ea = readReg(inst.rs1) + static_cast<uint64_t>(inst.imm);
        if (timing) {
            mem_lat = inst.isLoad() ? hierarchy_.dataAccess(ea) : 0;
            uint64_t key = ea >> 3;
            // Newest-to-oldest search of the last kStoreQueueDepth
            // stores. The predecoded path goes through the store
            // index; the legacy reference path keeps the plain ring
            // scan, so the differential suites verify the index
            // against the scan on every load.
            if constexpr (std::is_same_v<Op, DecodedOp>)
                mem_dep_ready = storeDepReady(key);
            else
                mem_dep_ready = scanStoreQueue(key);
        }
    }

    // Timing for this instruction (done = completion cycle). The extra
    // store-to-load dependence is folded in afterwards.
    uint64_t done;
    if (timing) {
        std::array<uint8_t, 3> srcs{};  // REG_ZERO-padded
        opSrcRegs(inst, srcs);
        done = issueStep(p, opFuSpec(*this, inst), srcs.data(), f,
                         mem_lat);
        if (mem_dep_ready > done)
            done = mem_dep_ready;
    } else {
        done = func_done();
    }

    bool ends_group = false;   // taken control flow ends the fetch group

    switch (inst.op) {
      case Opcode::NOP:
        break;
      case Opcode::ADD:
        writeReg(inst.rd, readReg(inst.rs1) + readReg(inst.rs2));
        break;
      case Opcode::SUB:
        writeReg(inst.rd, readReg(inst.rs1) - readReg(inst.rs2));
        break;
      case Opcode::MUL:
        writeReg(inst.rd, readReg(inst.rs1) * readReg(inst.rs2));
        break;
      case Opcode::DIV:
        writeReg(inst.rd, static_cast<uint64_t>(signedDiv(
            static_cast<int64_t>(readReg(inst.rs1)),
            static_cast<int64_t>(readReg(inst.rs2)))));
        break;
      case Opcode::REM:
        writeReg(inst.rd, static_cast<uint64_t>(signedRem(
            static_cast<int64_t>(readReg(inst.rs1)),
            static_cast<int64_t>(readReg(inst.rs2)))));
        break;
      case Opcode::AND:
        writeReg(inst.rd, readReg(inst.rs1) & readReg(inst.rs2));
        break;
      case Opcode::OR:
        writeReg(inst.rd, readReg(inst.rs1) | readReg(inst.rs2));
        break;
      case Opcode::XOR:
        writeReg(inst.rd, readReg(inst.rs1) ^ readReg(inst.rs2));
        break;
      case Opcode::SLL:
        writeReg(inst.rd, readReg(inst.rs1) << (readReg(inst.rs2) & 63));
        break;
      case Opcode::SRL:
        writeReg(inst.rd, readReg(inst.rs1) >> (readReg(inst.rs2) & 63));
        break;
      case Opcode::SRA:
        writeReg(inst.rd, static_cast<uint64_t>(
            static_cast<int64_t>(readReg(inst.rs1)) >>
            (readReg(inst.rs2) & 63)));
        break;
      case Opcode::ADDI:
        writeReg(inst.rd, readReg(inst.rs1) +
                              static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::ANDI:
        writeReg(inst.rd, readReg(inst.rs1) &
                              static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::ORI:
        writeReg(inst.rd, readReg(inst.rs1) |
                              static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::XORI:
        writeReg(inst.rd, readReg(inst.rs1) ^
                              static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::SLLI:
        writeReg(inst.rd, readReg(inst.rs1) << (inst.imm & 63));
        break;
      case Opcode::SRLI:
        writeReg(inst.rd, readReg(inst.rs1) >> (inst.imm & 63));
        break;
      case Opcode::SRAI:
        writeReg(inst.rd, static_cast<uint64_t>(
            static_cast<int64_t>(readReg(inst.rs1)) >> (inst.imm & 63)));
        break;
      case Opcode::MOV:
        writeReg(inst.rd, readReg(inst.rs1));
        break;
      case Opcode::LDI:
        writeReg(inst.rd, static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::FADD:
        writeRegD(inst.rd, regDouble(inst.rs1) + regDouble(inst.rs2));
        break;
      case Opcode::FSUB:
        writeRegD(inst.rd, regDouble(inst.rs1) - regDouble(inst.rs2));
        break;
      case Opcode::FMUL:
        writeRegD(inst.rd, regDouble(inst.rs1) * regDouble(inst.rs2));
        break;
      case Opcode::FDIV:
        writeRegD(inst.rd, regDouble(inst.rs1) / regDouble(inst.rs2));
        break;
      case Opcode::FSQRT:
        writeRegD(inst.rd, std::sqrt(regDouble(inst.rs1)));
        break;
      case Opcode::FNEG:
        writeRegD(inst.rd, -regDouble(inst.rs1));
        break;
      case Opcode::FABS:
        writeRegD(inst.rd, std::abs(regDouble(inst.rs1)));
        break;
      case Opcode::FMIN:
        writeRegD(inst.rd,
                  std::fmin(regDouble(inst.rs1), regDouble(inst.rs2)));
        break;
      case Opcode::FMAX:
        writeRegD(inst.rd,
                  std::fmax(regDouble(inst.rs1), regDouble(inst.rs2)));
        break;
      case Opcode::FEXP:
        writeRegD(inst.rd, std::exp(regDouble(inst.rs1)));
        break;
      case Opcode::FLOG:
        writeRegD(inst.rd, std::log(regDouble(inst.rs1)));
        break;
      case Opcode::FSIN:
        writeRegD(inst.rd, std::sin(regDouble(inst.rs1)));
        break;
      case Opcode::FCOS:
        writeRegD(inst.rd, std::cos(regDouble(inst.rs1)));
        break;
      case Opcode::I2F:
        writeRegD(inst.rd, static_cast<double>(
            static_cast<int64_t>(readReg(inst.rs1))));
        break;
      case Opcode::F2I:
        writeReg(inst.rd, static_cast<uint64_t>(
            isa::f2iSaturate(regDouble(inst.rs1))));
        break;
      case Opcode::CMP:
        writeReg(inst.rd, evalCmp(inst.cmp, readReg(inst.rs1),
                                  readReg(inst.rs2)) ? 1 : 0);
        break;
      case Opcode::SEL:
        writeReg(inst.rd, readReg(inst.rs1) ? readReg(inst.rs2)
                                            : readReg(inst.rs3));
        break;
      case Opcode::LD:
        writeReg(inst.rd, mem_.readU64(ea));
        break;
      case Opcode::LDB:
        writeReg(inst.rd, mem_.readByte(ea));
        break;
      case Opcode::ST:
        mem_.writeU64(ea, readReg(inst.rs2));
        break;
      case Opcode::STB:
        mem_.writeByte(ea, readReg(inst.rs2) & 0xff);
        break;
      case Opcode::JMP:
        next_pc = static_cast<uint64_t>(inst.imm);
        if (cfg_.pbsEnabled)
            pbs_.noteBranch(this_pc, next_pc, true);
        ends_group = true;
        break;
      case Opcode::JZ:
      case Opcode::JNZ: {
        bool nonzero = readReg(inst.rs1) != 0;
        bool taken = inst.op == Opcode::JNZ ? nonzero : !nonzero;
        stats_.branches++;
        if (predictAndTrain(this_pc, taken, false) && timing)
            redirect(p, done);
        if (cfg_.pbsEnabled)
            pbs_.noteBranch(this_pc, static_cast<uint64_t>(inst.imm),
                            taken);
        if (taken) {
            next_pc = static_cast<uint64_t>(inst.imm);
            ends_group = true;
        }
        break;
      }
      case Opcode::CALL:
        writeReg(isa::REG_RA, this_pc + 1);
        next_pc = static_cast<uint64_t>(inst.imm);
        if (cfg_.pbsEnabled)
            pbs_.noteCall(this_pc);
        ends_group = true;
        break;
      case Opcode::RET:
        next_pc = readReg(isa::REG_RA);
        if (cfg_.pbsEnabled)
            pbs_.noteReturn();
        ends_group = true;
        break;
      case Opcode::HALT:
        halted_ = true;
        break;

      case Opcode::PROB_CMP: {
        uint64_t v_new = readReg(inst.rs1);
        uint64_t operand = readReg(inst.rs2);
        bool cond_new = evalCmp(inst.cmp, v_new, operand);
        ProbGroup &grp = probGroups_[inst.probId];
        grp = ProbGroup{};
        grp.open = true;
        grp.condNew = cond_new;
        if (cfg_.pbsEnabled) {
            const core::PbsInstance &pub = *prob_fetch;
            grp.token = pub.token;
            grp.steered = pub.steered;
            grp.old = pub.old;
            grp.managed = pbs_.onProbCmpExec(pub.token, v_new, operand,
                                             done);
            if (grp.steered) {
                // The value swap: condition and probabilistic value come
                // from the recorded previous execution.
                writeReg(inst.rd, grp.old.taken ? 1 : 0);
                writeReg(inst.rs1, grp.old.value1);
                // Guarded so regReady_[REG_ZERO] stays 0 (the
                // dependence maxes rely on that invariant); a zero
                // prob register was never read back anyway.
                if (timing && inst.rs1 != isa::REG_ZERO)
                    regReady_[inst.rs1] = done;
            } else {
                writeReg(inst.rd, cond_new ? 1 : 0);
            }
        } else {
            writeReg(inst.rd, cond_new ? 1 : 0);
        }
        break;
      }

      case Opcode::CFD_JNZ: {
        // Direction supplied at fetch by the (idealized) CFD hardware
        // queue: never mispredicts, never touches the predictor.
        bool taken = readReg(inst.rs1) != 0;
        stats_.branches++;
        if (taken) {
            next_pc = static_cast<uint64_t>(inst.imm);
            ends_group = true;
        }
        break;
      }

      case Opcode::PROB_JMP: {
        ProbGroup &grp = probGroups_[inst.probId];
        if (inst.isCarrierProbJmp()) {
            // Value-carrier: participates in the swap, never branches.
            if (cfg_.pbsEnabled && grp.open) {
                uint64_t v2_new = readReg(inst.rd);
                pbs_.onCarrierExec(grp.token, v2_new);
                if (grp.steered && grp.old.hasValue2)
                    writeReg(inst.rd, grp.old.value2);
            }
            break;
        }

        stats_.branches++;
        stats_.probBranches++;
        uint64_t self_seq = probSeq_[inst.probId]++;
        uint64_t consumed_seq = self_seq;
        bool taken;
        bool steered = false;
        if (cfg_.pbsEnabled && grp.open) {
            std::optional<uint64_t> v2;
            if (inst.rd != isa::REG_ZERO)
                v2 = readReg(inst.rd);
            pbs_.onProbJmpExec(grp.token, grp.condNew, v2,
                               static_cast<uint64_t>(inst.imm), done,
                               self_seq);
            if (grp.steered) {
                steered = true;
                taken = grp.old.taken;
                consumed_seq = grp.old.genSeq;
                if (inst.rd != isa::REG_ZERO && grp.old.hasValue2)
                    writeReg(inst.rd, grp.old.value2);
                stats_.steeredBranches++;
                // Direction known at fetch: no prediction, no penalty.
            } else {
                taken = grp.condNew;
                if (predictAndTrain(this_pc, taken, true) && timing)
                    redirect(p, done);
            }
        } else {
            // PBS disabled: behaves as JNZ on the condition register.
            taken = readReg(inst.rs1) != 0;
            if (predictAndTrain(this_pc, taken, true) && timing)
                redirect(p, done);
        }
        if (cfg_.traceProbBranches) {
            probTrace_.push_back({inst.probId, self_seq, consumed_seq,
                                  taken, steered});
        }
        if (cfg_.pbsEnabled)
            pbs_.noteBranch(this_pc, static_cast<uint64_t>(inst.imm),
                            taken);
        grp.open = false;
        if (taken) {
            next_pc = static_cast<uint64_t>(inst.imm);
            ends_group = true;
        }
        break;
      }

      default:
        throw std::logic_error("unimplemented opcode");
    }

    if (timing) {
        if (inst.isStore())
            pushStore(ea >> 3, done);
        retireStep(p, inst.destReg(), f, done, ends_group);
        stats_.cycles = p.lastCommitCycle;
    }

    stats_.instructions++;
    if (!timing)
        stats_.cycles = stats_.instructions;
    pc_ = next_pc;
}

template void Core::stepOneOn<DecodedOp>(const DecodedOp &);
template void Core::stepOneOn<Instruction>(const Instruction &);

}  // namespace pbs::cpu
