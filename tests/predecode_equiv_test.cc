/**
 * @file
 * Differential equivalence: the predecoded DecodedImage execution path
 * must be bit-identical to the legacy direct-Program interpretation on
 * every registered workload — cycle counts, misprediction counts,
 * prob-branch traces, architectural registers, and final memory state,
 * across multiple seeds, simulation modes, and PBS settings.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "cpu/core.hh"
#include "isa/assembler.hh"
#include "isa/decoded_image.hh"
#include "workloads/common.hh"

namespace {

using namespace pbs;

struct RunOutcome
{
    cpu::CoreStats stats;
    core::PbsStats pbs;
    std::vector<cpu::ProbTraceEntry> trace;
    std::array<uint64_t, isa::kNumRegs> regs;
    std::vector<double> outputs;
    uint64_t pc = 0;
};

RunOutcome
outcomeOf(const workloads::BenchmarkDesc &b, const cpu::Core &core)
{
    RunOutcome out;
    out.stats = core.stats();
    out.pbs = core.pbs().stats();
    out.trace = core.probTrace();
    for (unsigned r = 0; r < isa::kNumRegs; r++)
        out.regs[r] = core.reg(r);
    out.outputs = b.simOutput(core.memory());
    out.pc = core.pc();
    return out;
}

void
expectIdentical(const RunOutcome &legacy, const RunOutcome &decoded,
                const mem::SparseMemory &legacyMem,
                const mem::SparseMemory &decodedMem,
                const std::string &what)
{
    // Cycle-exact timing and event counts.
    EXPECT_EQ(legacy.stats.cycles, decoded.stats.cycles) << what;
    EXPECT_EQ(legacy.stats.instructions, decoded.stats.instructions)
        << what;
    EXPECT_EQ(legacy.stats.branches, decoded.stats.branches) << what;
    EXPECT_EQ(legacy.stats.mispredicts, decoded.stats.mispredicts)
        << what;
    EXPECT_TRUE(legacy.stats == decoded.stats) << what;

    // PBS engine statistics (every counter).
    EXPECT_TRUE(legacy.pbs == decoded.pbs) << what;

    // The dynamic prob-branch trace, entry by entry.
    ASSERT_EQ(legacy.trace.size(), decoded.trace.size()) << what;
    for (size_t i = 0; i < legacy.trace.size(); i++) {
        EXPECT_EQ(legacy.trace[i].probId, decoded.trace[i].probId)
            << what << " entry " << i;
        EXPECT_EQ(legacy.trace[i].selfSeq, decoded.trace[i].selfSeq)
            << what << " entry " << i;
        EXPECT_EQ(legacy.trace[i].consumedSeq,
                  decoded.trace[i].consumedSeq) << what << " entry " << i;
        EXPECT_EQ(legacy.trace[i].taken, decoded.trace[i].taken)
            << what << " entry " << i;
        EXPECT_EQ(legacy.trace[i].steered, decoded.trace[i].steered)
            << what << " entry " << i;
    }

    // Architectural end state.
    EXPECT_EQ(legacy.regs, decoded.regs) << what;
    EXPECT_EQ(legacy.pc, decoded.pc) << what;
    EXPECT_EQ(legacy.outputs, decoded.outputs) << what;
    EXPECT_TRUE(legacyMem.sameContents(decodedMem)) << what;
}

/** Run @p name at 1/100 scale under @p cfg on both execution paths,
 *  once per seed, and diff every outcome. */
void
expectPathsAgree(const char *name, cpu::CoreConfig cfg,
                 std::initializer_list<uint64_t> seeds)
{
    const auto &b = workloads::benchmarkByName(name);
    for (uint64_t seed : seeds) {
        workloads::WorkloadParams p;
        p.seed = seed;
        p.scale = std::max<uint64_t>(1, b.defaultScale / 100);

        cfg.execPath = cpu::ExecPath::LegacyProgram;
        cpu::Core legacy(b.build(p, workloads::Variant::Marked), cfg);
        legacy.run();
        cfg.execPath = cpu::ExecPath::Decoded;
        cpu::Core decoded(b.build(p, workloads::Variant::Marked), cfg);
        decoded.run();
        expectIdentical(outcomeOf(b, legacy), outcomeOf(b, decoded),
                        legacy.memory(), decoded.memory(),
                        std::string(name) + " seed " +
                            std::to_string(seed));
    }
}

class PredecodeEquiv : public ::testing::TestWithParam<const char *> {};

TEST_P(PredecodeEquiv, TimingWithPbsAndTrace)
{
    cpu::CoreConfig cfg;
    cfg.predictor = "tage-sc-l";
    cfg.pbsEnabled = true;
    cfg.traceProbBranches = true;
    expectPathsAgree(GetParam(), cfg, {3u, 17u, 1009u});
}

TEST_P(PredecodeEquiv, FunctionalNoPbs)
{
    cpu::CoreConfig cfg;
    cfg.mode = cpu::SimMode::Functional;
    cfg.predictor = "tournament";
    expectPathsAgree(GetParam(), cfg, {5u, 23u, 999u});
}

// The mpki fidelity with PBS on and every prob instance traced: the
// decoded path runs superblocks with the predictor and the PBS context
// notes as a branch observer and single-steps the prob ops, so this is
// the oracle for steering, value swaps and sequence bookkeeping there.
TEST_P(PredecodeEquiv, FunctionalWithPbsAndTrace)
{
    cpu::CoreConfig cfg;
    cfg.mode = cpu::SimMode::Functional;
    cfg.predictor = "tage-sc-l";
    cfg.pbsEnabled = true;
    cfg.traceProbBranches = true;
    expectPathsAgree(GetParam(), cfg, {7u, 31u, 4242u});
}

// The Fig. 9 filter in the mpki fidelity: prob branches go to the
// static side predictor, every other conditional branch to the main one.
TEST_P(PredecodeEquiv, FunctionalFilter)
{
    cpu::CoreConfig cfg;
    cfg.mode = cpu::SimMode::Functional;
    cfg.predictor = "tage-sc-l";
    cfg.filterProbFromPredictor = true;
    expectPathsAgree(GetParam(), cfg, {13u, 77u, 2718u});
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, PredecodeEquiv,
    ::testing::Values("dop", "greeks", "swaptions", "genetic", "photon",
                      "mc-integ", "pi", "bandit"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Store-to-load forwarding window: the decoded path's store index must
// agree with the legacy exact ring scan, including hash-collision and
// window-expiry cases (many distinct addresses, > 64 queued stores).
// ---------------------------------------------------------------------

TEST(PredecodeEquivStoreQueue, CollisionAndExpiryStress)
{
    isa::Assembler a;
    constexpr unsigned kAddrs = 384;  // > index slots, forces collisions
    a.ldi(3, 0x20000);                // base
    a.ldi(4, 2000);                   // outer iterations
    a.ldi(7, 1);
    a.label("loop");
    // Walk a stride pattern: store to (i*56 % (kAddrs*8)), then load a
    // different offset, so loads hit both matching and missing keys.
    a.mul(5, 4, 7);
    a.addi(5, 5, 7919);
    a.slli(5, 5, 3);
    a.andi(5, 5, (kAddrs * 8) - 1);
    a.add(5, 5, 3);
    a.st(5, 4, 0);
    a.ld(6, 5, 0);
    a.addi(5, 5, 8);
    a.ld(6, 5, 0);
    a.addi(4, 4, -1);
    a.jnz(4, "loop");
    a.halt();
    isa::Program prog = a.finish();

    cpu::CoreConfig legacyCfg;
    legacyCfg.predictor = "tournament";
    legacyCfg.execPath = cpu::ExecPath::LegacyProgram;
    cpu::CoreConfig decodedCfg = legacyCfg;
    decodedCfg.execPath = cpu::ExecPath::Decoded;

    cpu::Core legacy(prog, legacyCfg);
    legacy.run();
    cpu::Core decoded(prog, decodedCfg);
    decoded.run();

    EXPECT_EQ(legacy.stats().cycles, decoded.stats().cycles);
    EXPECT_TRUE(legacy.stats() == decoded.stats());
    EXPECT_TRUE(legacy.memory().sameContents(decoded.memory()));
}

}  // namespace
