/**
 * @file
 * Differential harness for the superblock-executor cores: the
 * predecoded path must match the ExecPath::LegacyProgram oracle in
 * every statistic (cycles included), cache counter, PBS counter,
 * prob-trace entry, register and memory byte. Two fidelities run on
 * that path: mpki (SimMode::Functional; the predictor and the PBS
 * context notes are the executor's branch observer) and timing
 * (SimMode::Timing; the observer also records blocks, addresses and
 * branch outcomes, and the core replays its timing model per batch).
 * Prob ops single-step in both. Covered, for both fidelities: 240
 * fuzzed programs from the shared generator under random step(n)
 * schedules (long chunks cross the timing batch bound), PBS off and
 * on, under every PBS_FUNC_DISPATCH backend; exact stops at
 * CoreConfig::maxInstructions; the out-of-range-PC throw; and the
 * JMP/CALL/RET/CFD_JNZ/carrier hooks the generator does not emit.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cpu/core.hh"
#include "exec/superblock.hh"
#include "isa/assembler.hh"
#include "rng/rng.hh"
#include "workloads/common.hh"

#include "support/random_program.hh"

namespace {

using namespace pbs;
using testsupport::randomProgram;

/** Every PBS_FUNC_DISPATCH backend of the predecoded mpki core. */
constexpr const char *kDispatches[] = {"superblock", "superblock-portable",
                                       "switch"};

constexpr const char *kPredictors[] = {"tournament", "gshare", "tage-sc-l",
                                       "local"};

/** PBS_FUNC_DISPATCH for the cores constructed in its scope. */
class ScopedDispatch
{
  public:
    explicit ScopedDispatch(const char *value)
    {
        setenv("PBS_FUNC_DISPATCH", value, 1);
    }
    ~ScopedDispatch() { unsetenv("PBS_FUNC_DISPATCH"); }
};

/** Both fidelities that run on the executor. */
constexpr cpu::SimMode kModes[] = {cpu::SimMode::Functional,
                                   cpu::SimMode::Timing};

const char *
modeName(cpu::SimMode mode)
{
    return mode == cpu::SimMode::Timing ? "timing" : "mpki";
}

cpu::CoreConfig
coreConfig(cpu::SimMode mode, const char *predictor, bool pbs)
{
    cpu::CoreConfig cfg;
    cfg.mode = mode;
    cfg.predictor = predictor;
    cfg.pbsEnabled = pbs;
    cfg.traceProbBranches = true;
    cfg.execPath = cpu::ExecPath::LegacyProgram;
    return cfg;
}

/** The oracle plus one predecoded core per dispatch backend. */
struct CoreSet
{
    std::unique_ptr<cpu::Core> legacy;
    std::vector<std::unique_ptr<cpu::Core>> decoded;
};

CoreSet
makeCores(const isa::Program &prog, cpu::CoreConfig cfg)
{
    CoreSet set;
    cfg.execPath = cpu::ExecPath::LegacyProgram;
    set.legacy = std::make_unique<cpu::Core>(prog, cfg);
    cfg.execPath = cpu::ExecPath::Decoded;
    for (const char *d : kDispatches) {
        ScopedDispatch env(d);
        set.decoded.push_back(std::make_unique<cpu::Core>(prog, cfg));
    }
    return set;
}

/** Full diff: statistics, cache and PBS counters, trace,
 *  architectural state. */
void
expectSameCore(const cpu::Core &ref, const cpu::Core &got,
               const std::string &what)
{
    const cpu::CoreStats &a = ref.stats(), &b = got.stats();
    EXPECT_TRUE(a == b) << what << ": instructions " << a.instructions
                        << "/" << b.instructions << ", cycles "
                        << a.cycles << "/" << b.cycles << ", branches "
                        << a.branches << "/" << b.branches
                        << ", mispredicts " << a.mispredicts << "/"
                        << b.mispredicts << ", steered "
                        << a.steeredBranches << "/" << b.steeredBranches;
    EXPECT_TRUE(ref.pbs().stats() == got.pbs().stats()) << what;

    const mem::MemoryHierarchy &ca = ref.caches(), &cb = got.caches();
    EXPECT_EQ(ca.l1i().hits(), cb.l1i().hits()) << what;
    EXPECT_EQ(ca.l1i().misses(), cb.l1i().misses()) << what;
    EXPECT_EQ(ca.l1d().hits(), cb.l1d().hits()) << what;
    EXPECT_EQ(ca.l1d().misses(), cb.l1d().misses()) << what;
    EXPECT_EQ(ca.l2().hits(), cb.l2().hits()) << what;
    EXPECT_EQ(ca.l2().misses(), cb.l2().misses()) << what;

    const auto &ta = ref.probTrace(), &tb = got.probTrace();
    ASSERT_EQ(ta.size(), tb.size()) << what;
    for (size_t i = 0; i < ta.size(); i++) {
        EXPECT_TRUE(ta[i].probId == tb[i].probId &&
                    ta[i].selfSeq == tb[i].selfSeq &&
                    ta[i].consumedSeq == tb[i].consumedSeq &&
                    ta[i].taken == tb[i].taken &&
                    ta[i].steered == tb[i].steered)
            << what << " trace entry " << i;
    }

    const cpu::ArchState sa = ref.saveArch(), sb = got.saveArch();
    EXPECT_EQ(sa.regs, sb.regs) << what;
    EXPECT_EQ(sa.pc, sb.pc) << what;
    EXPECT_EQ(sa.halted, sb.halted) << what;
    EXPECT_EQ(sa.probSeq, sb.probSeq) << what;
    EXPECT_TRUE(sa.mem.sameContents(sb.mem)) << what;
}

// ---------------------------------------------------------------------
// Fuzzed programs: 60 rounds x 4 seeds (240 programs, the dispatch
// fuzzer's distribution) per fidelity, PBS off and on, every backend in
// lockstep with the oracle under one random step(n) schedule. Chunks
// are mostly short, so block epilogues and prob-op single steps land
// at arbitrary offsets, with occasional long ones that chain many
// blocks and cross the timing core's batch bound.
// ---------------------------------------------------------------------

class MpkiFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, cpu::SimMode>>
{
  protected:
    uint64_t seed() const { return std::get<0>(GetParam()); }
    cpu::SimMode mode() const { return std::get<1>(GetParam()); }
};

TEST_P(MpkiFuzz, SteppedDecodedMatchesLegacy)
{
    rng::XorShift64Star rng(seed());
    for (int round = 0; round < 60; round++) {
        const bool withProb = (rng.next() & 1) != 0;
        const isa::Program prog = randomProgram(rng, withProb);
        const char *predictor = kPredictors[round % 4];
        for (bool pbs : {false, true}) {
            const std::string what =
                std::string(modeName(mode())) + " seed " +
                std::to_string(seed()) + " round " +
                std::to_string(round) + (pbs ? " pbs" : " no-pbs");
            CoreSet cores =
                makeCores(prog, coreConfig(mode(), predictor, pbs));
            cpu::Core &ref = *cores.legacy;
            while (!ref.halted()) {
                const uint64_t chunk = rng.next() % 4 == 0
                    ? 1 + rng.next() % 4096 : 1 + rng.next() % 37;
                const uint64_t done = ref.step(chunk);
                for (size_t d = 0; d < cores.decoded.size(); d++) {
                    cpu::Core &got = *cores.decoded[d];
                    ASSERT_EQ(got.step(chunk), done)
                        << what << " [" << kDispatches[d] << "]";
                    ASSERT_EQ(got.pc(), ref.pc())
                        << what << " [" << kDispatches[d] << "]";
                    ASSERT_TRUE(got.stats() == ref.stats())
                        << what << " [" << kDispatches[d] << "] at "
                        << ref.stats().instructions;
                }
            }
            for (size_t d = 0; d < cores.decoded.size(); d++) {
                expectSameCore(ref, *cores.decoded[d],
                               what + " [" + kDispatches[d] + "]");
            }
        }
    }
}

// run() honours CoreConfig::maxInstructions to the instruction: every
// limit from 1 up to past the program's end stops all paths at
// min(limit, program length) with identical state.
TEST_P(MpkiFuzz, RunStopsExactlyAtMaxInstructions)
{
    rng::XorShift64Star rng(seed() * 0x9e3779b97f4a7c15ull + 1);
    for (int round = 0; round < 60; round++) {
        const bool withProb = (rng.next() & 1) != 0;
        const isa::Program prog = randomProgram(rng, withProb);
        const bool pbs = (round & 1) != 0;
        cpu::CoreConfig cfg =
            coreConfig(mode(), kPredictors[round % 4], pbs);

        cpu::Core full(prog, cfg);
        full.run();
        ASSERT_TRUE(full.halted());
        const uint64_t length = full.stats().instructions;
        cfg.maxInstructions = 1 + rng.next() % (length + 8);

        const std::string what =
            std::string(modeName(mode())) + " seed " +
            std::to_string(seed()) + " round " + std::to_string(round) +
            " limit " + std::to_string(cfg.maxInstructions);
        CoreSet cores = makeCores(prog, cfg);
        cores.legacy->run();
        EXPECT_EQ(cores.legacy->stats().instructions,
                  std::min(cfg.maxInstructions, length)) << what;
        for (size_t d = 0; d < cores.decoded.size(); d++) {
            cores.decoded[d]->run();
            expectSameCore(*cores.legacy, *cores.decoded[d],
                           what + " [" + kDispatches[d] + "]");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MpkiFuzz,
    ::testing::Combine(::testing::Values(11, 42, 1234, 9999),
                       ::testing::ValuesIn(kModes)),
    [](const ::testing::TestParamInfo<MpkiFuzz::ParamType> &info) {
        return std::string(modeName(std::get<1>(info.param))) + "_" +
               std::to_string(std::get<0>(info.param));
    });

// ---------------------------------------------------------------------
// Control flow the generator never emits: JMP, CALL/RET, CFD_JNZ (also
// to its own fallthrough) and a carrier PROB_JMP, arranged so each observer hook changes the PBS
// outcome when it is dropped. The prob group sits in a function called
// from two sites (CALL sets the context's function PC, so the sites
// keep separate PBS entries; RET unwinds the call depth, past 1 of
// which PBS gives up), inside two inner loops of which one is closed
// by a backward JMP (which allocates its loop context and evicts, and
// so flushes, the other's).
// ---------------------------------------------------------------------

isa::Program
controlFlowZoo()
{
    using isa::CmpOp;
    isa::Assembler a;
    a.ldi(3, 200);                       // outer counter
    a.ldi(10, 88172645463325252);        // xorshift state
    a.ldf(12, 0.4);                      // prob threshold
    a.ldf(16, 1048576.0);
    a.label("outer");
    a.ldi(8, 3);
    a.label("jloop");                    // closed by a backward JMP
    a.call("draw");
    a.addi(8, 8, -1);
    a.jz(8, "jdone");
    a.jmp("jloop");
    a.label("jdone");
    a.ldi(9, 2);
    a.label("nloop");                    // closed by a backward JNZ
    a.call("draw");
    a.andi(7, 10, 3);
    a.cfdJnz(7, "skip");
    a.addi(11, 11, 5);
    a.label("skip");
    a.andi(7, 10, 4);                    // branches to their own
    a.cfdJnz(7, "fall1");                // fallthrough: taken or not,
    a.label("fall1");                    // the successor is the same,
    a.jnz(7, "fall2");                   // only the fetch group differs
    a.label("fall2");
    a.addi(9, 9, -1);
    a.jnz(9, "nloop");
    a.addi(3, 3, -1);
    a.jnz(3, "outer");
    a.halt();

    a.label("draw");                     // r10 = xorshift(r10), then
    a.slli(5, 10, 13);                   // a prob branch on its bits
    a.xor_(10, 10, 5);
    a.srli(5, 10, 7);
    a.xor_(10, 10, 5);
    a.slli(5, 10, 17);
    a.xor_(10, 10, 5);
    a.andi(14, 10, 0xfffff);
    a.i2f(14, 14);
    a.fdiv(14, 14, 16);
    a.mov(15, 10);
    a.probCmp(CmpOp::FLT, 6, 14, 12);
    a.probJmpCarrier(15);
    a.probJmp(isa::REG_ZERO, 6, "hit");
    a.addi(11, 11, 1);
    a.ret();
    a.label("hit");
    a.addi(13, 13, 1);
    a.ret();
    return a.finish();
}

TEST(MpkiEquivEdges, ControlFlowHooksMatchLegacy)
{
    const isa::Program prog = controlFlowZoo();
    for (cpu::SimMode mode : kModes) {
        for (bool pbs : {false, true}) {
            for (const char *predictor : {"tage-sc-l", "tournament"}) {
                const std::string what = std::string(modeName(mode)) +
                                         " " + predictor +
                                         (pbs ? " pbs" : " no-pbs");
                CoreSet cores =
                    makeCores(prog, coreConfig(mode, predictor, pbs));
                cores.legacy->run();
                ASSERT_TRUE(cores.legacy->halted()) << what;
                if (pbs) {
                    EXPECT_GT(cores.legacy->stats().steeredBranches, 0u)
                        << what;
                    EXPECT_GT(cores.legacy->pbs().stats().contextClears,
                              0u) << what;
                }
                for (size_t d = 0; d < cores.decoded.size(); d++) {
                    cores.decoded[d]->run();
                    expectSameCore(*cores.legacy, *cores.decoded[d],
                                   what + " [" + kDispatches[d] + "]");
                }
            }
        }
    }
}

// A RET through a corrupted return address leaves the image mid-run;
// a program without HALT falls off its end. Every path throws the same
// out_of_range at the same instruction count and PC.
TEST(MpkiEquivEdges, OutOfRangePcThrowMatches)
{
    isa::Assembler wild;
    wild.ldi(3, 40);
    wild.label("loop");
    wild.call("fn");
    wild.addi(3, 3, -1);
    wild.jnz(3, "loop");
    wild.ldi(isa::REG_RA, 1 << 20);
    wild.ret();
    wild.label("fn");
    wild.addi(10, 10, 1);
    wild.ret();

    isa::Assembler offEnd;
    offEnd.ldi(3, 25);
    offEnd.label("loop");
    offEnd.addi(3, 3, -1);
    offEnd.jnz(3, "loop");
    offEnd.addi(4, 4, 1);

    const isa::Program progs[] = {wild.finish(), offEnd.finish()};
    for (const isa::Program &prog : progs) {
        for (cpu::SimMode mode : kModes) {
            for (bool viaStep : {false, true}) {
                CoreSet cores =
                    makeCores(prog, coreConfig(mode, "tage-sc-l", true));
                auto runToThrow = [&](cpu::Core &core) -> std::string {
                    try {
                        if (viaStep) {
                            while (!core.halted())
                                core.step(7);
                        } else {
                            core.run();
                        }
                    } catch (const std::out_of_range &e) {
                        return e.what();
                    }
                    return "no throw";
                };
                const std::string expect = runToThrow(*cores.legacy);
                EXPECT_EQ(expect.rfind("PC out of range", 0), 0u)
                    << expect;
                for (size_t d = 0; d < cores.decoded.size(); d++) {
                    const std::string what =
                        std::string(modeName(mode)) +
                        (viaStep ? " step [" : " run [") +
                        kDispatches[d] + "]";
                    EXPECT_EQ(runToThrow(*cores.decoded[d]), expect)
                        << what;
                    expectSameCore(*cores.legacy, *cores.decoded[d], what);
                }
            }
        }
    }
}

// The image the mpki core builds keeps prob ops out of every block: no
// block starts at one, none contains one, and every other leader still
// starts a block.
TEST(MpkiEquivEdges, ObservedImageExcludesProbOps)
{
    const auto &b = workloads::benchmarkByName("pi");
    workloads::WorkloadParams p;
    p.scale = std::max<uint64_t>(1, b.defaultScale / 100);
    const isa::DecodedImage img =
        isa::DecodedImage::decode(b.build(p, workloads::Variant::Marked));
    const exec::SuperblockImage sb = exec::SuperblockImage::build(img, true);
    const auto &ops = img.ops();

    uint64_t probOps = 0;
    for (uint64_t pc = 0; pc < ops.size(); pc++) {
        probOps += ops[pc].isProb();
        const bool wantBlock = ops[pc].isLeader() && !ops[pc].isProb();
        EXPECT_EQ(sb.blockAt(pc) != exec::SuperblockImage::kNoBlock,
                  wantBlock) << "pc " << pc;
    }
    ASSERT_GT(probOps, 0u);
    for (uint64_t pc = 0; pc < ops.size(); pc++) {
        const uint32_t bi = sb.blockAt(pc);
        if (bi == exec::SuperblockImage::kNoBlock)
            continue;
        const exec::Superblock &blk = sb.blocks()[bi];
        for (uint64_t q = pc; q < pc + blk.instCount; q++)
            EXPECT_FALSE(ops[q].isProb()) << "block at " << pc;
    }
    EXPECT_EQ(sb.buildStats().instructions + probOps, ops.size());
}

}  // namespace
