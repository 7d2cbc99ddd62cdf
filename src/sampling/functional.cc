#include "sampling/functional.hh"

#include <cmath>
#include <stdexcept>
#include <string>

#include "exec/superblock_exec.hh"
#include "isa/arith.hh"
#include "isa/assembler.hh"

namespace pbs::sampling {

using isa::CmpOp;
using isa::DecodedOp;
using isa::Opcode;

FunctionalEngine::FunctionalEngine(const isa::Program &prog,
                                   uint64_t maxInstructions,
                                   FuncDispatch dispatch)
    : image_(isa::DecodedImage::decode(prog)),
      maxInstructions_(maxInstructions),
      dispatch_(dispatch)
{
    pc_ = prog.entry;
    for (const auto &[addr, bytes] : prog.dataInit)
        mem_.writeBlock(addr, bytes);
    probSeq_.assign(size_t(image_.maxProbId()) + 1, 0);
    if (dispatch_ != FuncDispatch::Switch)
        sb_ = std::make_unique<exec::SuperblockImage>(
            exec::SuperblockImage::build(image_));
}

void
FunctionalEngine::run()
{
    while (!halted_) {
        uint64_t chunk = 1u << 16;
        if (maxInstructions_) {
            if (stats_.instructions >= maxInstructions_)
                break;
            chunk = std::min<uint64_t>(
                chunk, maxInstructions_ - stats_.instructions);
        }
        step(chunk);
    }
}

uint64_t
FunctionalEngine::step(uint64_t n)
{
    return dispatch_ == FuncDispatch::Switch ? stepSwitch(n)
                                             : stepSuper(n);
}

uint64_t
FunctionalEngine::stepSwitch(uint64_t n)
{
    const isa::DecodedOp *ops = image_.ops().data();
    const uint64_t size = image_.size();
    uint64_t pc = pc_;
    uint64_t executed = 0;
    while (!halted_ && executed < n) {
        if (pc >= size) {
            pc_ = pc;
            stats_.instructions += executed;
            throw std::out_of_range("PC out of range: " +
                                    std::to_string(pc));
        }
        pc = stepOne(ops[pc], pc);
        executed++;
    }
    pc_ = pc;
    stats_.instructions += executed;
    return executed;
}

uint64_t
FunctionalEngine::stepSuper(uint64_t n)
{
    const isa::DecodedOp *ops = image_.ops().data();
    const uint64_t size = image_.size();
    const exec::SuperblockImage &sb = *sb_;
    exec::SbCtx ctx;
    ctx.regs = regs_.data();
    ctx.mem = &mem_;
    ctx.probSeq = probSeq_.data();
    ctx.halted = &halted_;
    exec::NoBranchObserver noObserver;

    uint64_t pc = pc_;
    uint64_t executed = 0;
    auto flush = [&] {
        pc_ = pc;
        stats_.instructions += executed;
        stats_.branches += ctx.branches;
        stats_.probBranches += ctx.probBranches;
    };
    while (!halted_ && executed < n) {
        if (pc >= size) {
            flush();
            throw std::out_of_range("PC out of range: " +
                                    std::to_string(pc));
        }
        const uint32_t bi = sb.blockAt(pc);
        if (bi != exec::SuperblockImage::kNoBlock &&
            sb.blocks()[bi].instCount <= n - executed) {
            // The dispatcher chains whole blocks while they fit the
            // remaining budget and stops at the first PC it cannot
            // handle; ctx.next is where execution stopped.
            executed += exec::sbExec(dispatch_, sb, pc, n - executed, ctx,
                                     noObserver);
            pc = ctx.next;
        } else {
            // Epilogue / mid-block entry: retire one instruction at a
            // time through the reference switch so step(n) stops at
            // the exact instruction count.
            pc = stepOne(ops[pc], pc);
            executed++;
        }
    }
    flush();
    return executed;
}

cpu::ArchState
FunctionalEngine::saveArch() const
{
    cpu::ArchState s;
    s.regs = regs_;
    s.pc = pc_;
    s.halted = halted_;
    s.instructions = stats_.instructions;
    s.mem = mem_;
    s.probSeq = probSeq_;
    return s;
}

void
FunctionalEngine::restoreArch(const cpu::ArchState &state)
{
    if (state.probSeq.size() != probSeq_.size()) {
        throw std::invalid_argument(
            "restoreArch: state captured from a different program "
            "(probSeq size mismatch)");
    }
    regs_ = state.regs;
    // Pin the REG_ZERO invariant (regs_[0] == 0): every writer guards
    // it, and the superblock handlers read the register file unguarded
    // on the strength of it. No engine- or core-captured state can
    // violate it; this normalizes hand-crafted ArchStates too.
    regs_[isa::REG_ZERO] = 0;
    pc_ = state.pc;
    halted_ = state.halted;
    mem_ = state.mem;
    probSeq_ = state.probSeq;
    stats_.instructions = state.instructions;
}

uint64_t
FunctionalEngine::stepOne(const DecodedOp &inst, uint64_t this_pc)
{
    // Architectural semantics only. Every case mirrors the matching
    // case of cpu::Core::stepOneOn with the timing, predictor and PBS
    // steering stripped; the scalar helpers are shared (isa/arith.hh).
    uint64_t next_pc = this_pc + 1;

    auto rr = [&](unsigned r) -> uint64_t {
        return r ? regs_[r] : 0;
    };
    auto wr = [&](unsigned r, uint64_t v) {
        if (r != isa::REG_ZERO)
            regs_[r] = v;
    };
    auto rd_ = [&](unsigned r) { return isa::bitsToDouble(regs_[r]); };
    auto wd = [&](unsigned r, double v) { wr(r, isa::doubleBits(v)); };

    switch (inst.op) {
      case Opcode::NOP:
        break;
      case Opcode::ADD:
        wr(inst.rd, rr(inst.rs1) + rr(inst.rs2));
        break;
      case Opcode::SUB:
        wr(inst.rd, rr(inst.rs1) - rr(inst.rs2));
        break;
      case Opcode::MUL:
        wr(inst.rd, rr(inst.rs1) * rr(inst.rs2));
        break;
      case Opcode::DIV:
        wr(inst.rd, static_cast<uint64_t>(isa::signedDiv(
            static_cast<int64_t>(rr(inst.rs1)),
            static_cast<int64_t>(rr(inst.rs2)))));
        break;
      case Opcode::REM:
        wr(inst.rd, static_cast<uint64_t>(isa::signedRem(
            static_cast<int64_t>(rr(inst.rs1)),
            static_cast<int64_t>(rr(inst.rs2)))));
        break;
      case Opcode::AND:
        wr(inst.rd, rr(inst.rs1) & rr(inst.rs2));
        break;
      case Opcode::OR:
        wr(inst.rd, rr(inst.rs1) | rr(inst.rs2));
        break;
      case Opcode::XOR:
        wr(inst.rd, rr(inst.rs1) ^ rr(inst.rs2));
        break;
      case Opcode::SLL:
        wr(inst.rd, rr(inst.rs1) << (rr(inst.rs2) & 63));
        break;
      case Opcode::SRL:
        wr(inst.rd, rr(inst.rs1) >> (rr(inst.rs2) & 63));
        break;
      case Opcode::SRA:
        wr(inst.rd, static_cast<uint64_t>(
            static_cast<int64_t>(rr(inst.rs1)) >> (rr(inst.rs2) & 63)));
        break;
      case Opcode::ADDI:
        wr(inst.rd, rr(inst.rs1) + static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::ANDI:
        wr(inst.rd, rr(inst.rs1) & static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::ORI:
        wr(inst.rd, rr(inst.rs1) | static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::XORI:
        wr(inst.rd, rr(inst.rs1) ^ static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::SLLI:
        wr(inst.rd, rr(inst.rs1) << (inst.imm & 63));
        break;
      case Opcode::SRLI:
        wr(inst.rd, rr(inst.rs1) >> (inst.imm & 63));
        break;
      case Opcode::SRAI:
        wr(inst.rd, static_cast<uint64_t>(
            static_cast<int64_t>(rr(inst.rs1)) >> (inst.imm & 63)));
        break;
      case Opcode::MOV:
        wr(inst.rd, rr(inst.rs1));
        break;
      case Opcode::LDI:
        wr(inst.rd, static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::FADD:
        wd(inst.rd, rd_(inst.rs1) + rd_(inst.rs2));
        break;
      case Opcode::FSUB:
        wd(inst.rd, rd_(inst.rs1) - rd_(inst.rs2));
        break;
      case Opcode::FMUL:
        wd(inst.rd, rd_(inst.rs1) * rd_(inst.rs2));
        break;
      case Opcode::FDIV:
        wd(inst.rd, rd_(inst.rs1) / rd_(inst.rs2));
        break;
      case Opcode::FSQRT:
        wd(inst.rd, std::sqrt(rd_(inst.rs1)));
        break;
      case Opcode::FNEG:
        wd(inst.rd, -rd_(inst.rs1));
        break;
      case Opcode::FABS:
        wd(inst.rd, std::abs(rd_(inst.rs1)));
        break;
      case Opcode::FMIN:
        wd(inst.rd, std::fmin(rd_(inst.rs1), rd_(inst.rs2)));
        break;
      case Opcode::FMAX:
        wd(inst.rd, std::fmax(rd_(inst.rs1), rd_(inst.rs2)));
        break;
      case Opcode::FEXP:
        wd(inst.rd, std::exp(rd_(inst.rs1)));
        break;
      case Opcode::FLOG:
        wd(inst.rd, std::log(rd_(inst.rs1)));
        break;
      case Opcode::FSIN:
        wd(inst.rd, std::sin(rd_(inst.rs1)));
        break;
      case Opcode::FCOS:
        wd(inst.rd, std::cos(rd_(inst.rs1)));
        break;
      case Opcode::I2F:
        wd(inst.rd, static_cast<double>(
            static_cast<int64_t>(rr(inst.rs1))));
        break;
      case Opcode::F2I:
        wr(inst.rd,
           static_cast<uint64_t>(isa::f2iSaturate(rd_(inst.rs1))));
        break;
      case Opcode::CMP:
        wr(inst.rd,
           isa::evalCmp(inst.cmp, rr(inst.rs1), rr(inst.rs2)) ? 1 : 0);
        break;
      case Opcode::SEL:
        wr(inst.rd, rr(inst.rs1) ? rr(inst.rs2) : rr(inst.rs3));
        break;
      case Opcode::LD:
        wr(inst.rd, mem_.readU64(rr(inst.rs1) +
                                 static_cast<uint64_t>(inst.imm)));
        break;
      case Opcode::LDB:
        wr(inst.rd, mem_.readByte(rr(inst.rs1) +
                                  static_cast<uint64_t>(inst.imm)));
        break;
      case Opcode::ST:
        mem_.writeU64(rr(inst.rs1) + static_cast<uint64_t>(inst.imm),
                      rr(inst.rs2));
        break;
      case Opcode::STB:
        mem_.writeByte(rr(inst.rs1) + static_cast<uint64_t>(inst.imm),
                       rr(inst.rs2) & 0xff);
        break;
      case Opcode::JMP:
        next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::JZ:
      case Opcode::JNZ: {
        bool nonzero = rr(inst.rs1) != 0;
        bool taken = inst.op == Opcode::JNZ ? nonzero : !nonzero;
        stats_.branches++;
        if (taken)
            next_pc = static_cast<uint64_t>(inst.imm);
        break;
      }
      case Opcode::CALL:
        wr(isa::REG_RA, this_pc + 1);
        next_pc = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::RET:
        next_pc = rr(isa::REG_RA);
        break;
      case Opcode::HALT:
        halted_ = true;
        break;

      case Opcode::PROB_CMP:
        // PBS-off semantics: an ordinary comparison.
        wr(inst.rd,
           isa::evalCmp(inst.cmp, rr(inst.rs1), rr(inst.rs2)) ? 1 : 0);
        break;

      case Opcode::CFD_JNZ:
        stats_.branches++;
        if (rr(inst.rs1) != 0)
            next_pc = static_cast<uint64_t>(inst.imm);
        break;

      case Opcode::PROB_JMP:
        if (inst.isCarrierProbJmp())
            break;  // value carrier: never branches, no swap without PBS
        stats_.branches++;
        stats_.probBranches++;
        probSeq_[inst.probId]++;
        if (rr(inst.rs1) != 0)
            next_pc = static_cast<uint64_t>(inst.imm);
        break;

      default:
        throw std::logic_error("unimplemented opcode");
    }

    return next_pc;
}

}  // namespace pbs::sampling
