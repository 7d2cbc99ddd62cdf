/**
 * @file
 * Tests for the unified `pbs_sim` driver: CLI parsing, workload and
 * predictor selection, and batch determinism (a fixed seed yields
 * bit-identical statistics across runs and across thread counts).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "bench/bench.hh"
#include "driver/options.hh"
#include "driver/reports.hh"
#include "driver/runner.hh"
#include "exp/spec.hh"
#include "support/option_rows.hh"
#include "util/cli.hh"

namespace {

using namespace pbs;
using driver::DriverOptions;
using driver::parseArgs;

// --- CLI parsing -----------------------------------------------------

TEST(DriverOptions, DefaultsRequireWorkloadOrReport)
{
    auto r = parseArgs({});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("required"), std::string::npos);
}

TEST(DriverOptions, ParsesFullWorkloadInvocation)
{
    auto r = parseArgs({"--workload", "pi", "--predictor", "tage_scl",
                        "--seeds", "8", "--jobs", "4"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.opts.workload, "pi");
    EXPECT_EQ(r.opts.predictor, "tage-sc-l");  // canonicalized
    EXPECT_EQ(r.opts.seeds, 8u);
    EXPECT_EQ(r.opts.jobs, 4u);
    EXPECT_EQ(r.opts.seed, 12345u);            // default base seed
    EXPECT_FALSE(r.opts.pbs);
    EXPECT_EQ(r.opts.mode, "detailed");
}

TEST(DriverOptions, EqualsSyntaxAndFlags)
{
    auto r = parseArgs({"--workload=pi", "--predictor=tournament",
                        "--pbs", "--mode=mpki", "--wide",
                        "--scale=100", "--seed=7", "--div=4",
                        "--no-stall", "--no-context", "--no-guard"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.opts.pbs);
    EXPECT_EQ(r.opts.mode, "mpki");
    EXPECT_TRUE(r.opts.wide);
    EXPECT_EQ(r.opts.scale, 100u);
    EXPECT_EQ(r.opts.seed, 7u);
    EXPECT_EQ(r.opts.divisor, 4u);
    EXPECT_TRUE(r.opts.noStall);
    EXPECT_TRUE(r.opts.noContext);
    EXPECT_TRUE(r.opts.noGuard);
}

TEST(DriverOptions, RejectsUnknownWorkloadPredictorAndOption)
{
    EXPECT_FALSE(parseArgs({"--workload", "nonesuch"}).ok);
    EXPECT_FALSE(parseArgs({"--workload", "pi",
                            "--predictor", "nonesuch"}).ok);
    EXPECT_FALSE(parseArgs({"--workload", "pi", "--frobnicate"}).ok);
    EXPECT_FALSE(parseArgs({"--workload", "pi", "--jobs", "0"}).ok);
    EXPECT_FALSE(parseArgs({"--workload", "pi", "--seeds", "x"}).ok);
    // The mpki fidelity has one spelling: --mode mpki.
    EXPECT_FALSE(parseArgs({"--workload", "pi", "--functional"}).ok);
    EXPECT_FALSE(parseArgs({"--workload", "pi", "--timing"}).ok);
}

TEST(DriverOptions, EveryRowParsesAndIsInTheHelp)
{
    DriverOptions o;
    testsupport::expectEveryRowParses(
        driver::simOptions(o), driver::usageText(),
        {{"--workload", "pi"},
         {"--predictor", "tournament"},
         {"--mode", "sampled"},
         {"--variant", "cfd"},
         {"--format", "json"},
         {"--report", "fig07"},
         {"--trace", "t.json"},
         {"--metrics", "m.json"},
         {"--manifest", "run.json"},
         {"--telemetry", "ts.jsonl"}});
}

TEST(DriverOptions, WorkloadAndReportAreExclusive)
{
    EXPECT_FALSE(parseArgs({"--workload", "pi",
                            "--report", "fig07"}).ok);
    EXPECT_TRUE(parseArgs({"--report", "fig07"}).ok);
}

TEST(DriverOptions, PositionalBenchmarkName)
{
    auto r = parseArgs({"pi", "--pbs"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.opts.workload, "pi");
}

TEST(DriverOptions, VariantSelection)
{
    EXPECT_EQ(parseArgs({"pi", "--variant=marked"}).opts.variant,
              workloads::Variant::Marked);
    EXPECT_EQ(parseArgs({"dop", "--variant=predicated"}).opts.variant,
              workloads::Variant::Predicated);
    EXPECT_EQ(parseArgs({"dop", "--variant=cfd"}).opts.variant,
              workloads::Variant::Cfd);
    EXPECT_FALSE(parseArgs({"pi", "--variant=bogus"}).ok);
}

TEST(DriverOptions, CanonicalPredictorAliases)
{
    EXPECT_EQ(driver::canonicalPredictor("tage_scl"), "tage-sc-l");
    EXPECT_EQ(driver::canonicalPredictor("TAGE-SC-L"), "tage-sc-l");
    EXPECT_EQ(driver::canonicalPredictor("tagescl"), "tage-sc-l");
    EXPECT_EQ(driver::canonicalPredictor("tournament"), "tournament");
    EXPECT_EQ(driver::canonicalPredictor("tour"), "tournament");
    EXPECT_EQ(driver::canonicalPredictor("bimodal"), "bimodal");
    EXPECT_EQ(driver::canonicalPredictor("nonesuch"), "");
}

TEST(DriverOptions, CoreConfigReflectsOptions)
{
    auto r = parseArgs({"pi", "--pbs", "--wide", "--no-context"});
    ASSERT_TRUE(r.ok) << r.error;
    auto cfg = driver::coreConfig(r.opts);
    EXPECT_EQ(cfg.width, 8u);
    EXPECT_EQ(cfg.robSize, 256u);
    EXPECT_TRUE(cfg.pbsEnabled);
    EXPECT_FALSE(cfg.pbs.contextSupport);
    EXPECT_TRUE(cfg.pbs.stallOnBusy);
    EXPECT_EQ(cfg.mode, cpu::SimMode::Timing);

    auto f = parseArgs({"pi", "--mode", "mpki"});
    EXPECT_EQ(driver::coreConfig(f.opts).mode, cpu::SimMode::Functional);
}

TEST(DriverOptions, WorkloadParamsScaleAndDivisor)
{
    const auto &b = workloads::benchmarkByName("pi");
    auto r = parseArgs({"pi", "--div", "10"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(driver::workloadParams(r.opts, 1).scale,
              std::max<uint64_t>(1, b.defaultScale / 10));

    auto s = parseArgs({"pi", "--scale", "42"});
    EXPECT_EQ(driver::workloadParams(s.opts, 1).scale, 42u);
}

// --- The option table and the mode vocabulary ------------------------

TEST(OptionTable, EveryValueKindAcceptsAndRejectsOneWay)
{
    bool sw = false;
    std::string str = "unset", path;
    uint64_t big = 0;
    unsigned count = 0, atLeastOne = 0;
    double frac = -1.0, gate = 0.0;
    std::vector<util::Option> rows = {
        util::section("Heading:"),
        util::flag({"--sw"}, &sw, "a switch"),
        util::value({"--str", "--alias"}, &str, "<s>", "a string"),
        util::value({"--path"}, &path, "<f>", "a file name", 1),
        util::value({"--big"}, &big, "<n>", "an unsigned 64-bit count"),
        util::value({"--count"}, &count, "<n>", "an unsigned count"),
        util::value({"--floor"}, &atLeastOne, "<n>", "a count >= 1", 1),
        util::maxRegressOption(&frac, "in [0, 1)", 1.0, false),
        util::maxRegressOption(&gate, "> 0", HUGE_VAL, true),
    };
    // Both --max-regress ranges, [0, 1) and (0, inf), under two names.
    rows[rows.size() - 2].names = {"--frac"};
    rows.back().names = {"--gate"};
    auto parse = [&](const std::vector<std::string> &args) {
        return util::parseOptions(rows, args);
    };

    // "--k v", "--k=v", aliases, and every kind's valid values.
    EXPECT_EQ(parse({"--big", "7", "--count=8", "--sw", "--floor", "1"}),
              "");
    EXPECT_EQ(big, 7u);
    EXPECT_EQ(count, 8u);
    EXPECT_EQ(atLeastOne, 1u);
    EXPECT_TRUE(sw);
    EXPECT_EQ(parse({"--big=0x10", "--count", "4294967295"}), "");
    EXPECT_EQ(big, 16u);
    EXPECT_EQ(count, 4294967295u);
    EXPECT_EQ(parse({"--alias", "x"}), "");
    EXPECT_EQ(str, "x");
    EXPECT_EQ(parse({"--str="}), "");  // a string may be empty
    EXPECT_EQ(str, "");
    EXPECT_EQ(parse({"--str", "--sw"}), "");  // the next word is the value
    EXPECT_EQ(str, "--sw");
    EXPECT_EQ(parse({"--path=out.json", "--frac", "0", "--gate", "7.5"}),
              "");
    EXPECT_EQ(path, "out.json");
    EXPECT_EQ(frac, 0.0);
    EXPECT_EQ(gate, 7.5);
    EXPECT_EQ(parse({"--frac=0.25"}), "");
    EXPECT_EQ(frac, 0.25);

    const std::vector<std::vector<std::string>> bad = {
        {"--big"}, {"--count"}, {"--frac"},          // missing value
        {"--big", "-1"}, {"--big", "+1"},             // signs
        {"--big", " -1"}, {"--count", "-1"},
        {"--big", "3x"}, {"--count", "1.5"},          // trailing junk
        {"--big", ""}, {"--count="},                  // empty numbers
        {"--big", "18446744073709551616"},            // out of range
        {"--count", "4294967296"},
        {"--floor", "0"},                             // below the floor
        {"--frac", "nan"}, {"--frac", "inf"},         // non-finite
        {"--gate", "nan"}, {"--gate", "inf"},
        {"--frac", "0.2x"}, {"--frac", "0.2 "},       // trailing junk
        {"--frac", "1"}, {"--frac", "-0.1"},          // outside [0, 1)
        {"--gate", "0"}, {"--gate", "-1"},            // not > 0
        {"--path", ""}, {"--path="},                  // empty file name
        {"--sw=1"},                                   // a switch has no value
        {"--nonesuch"}, {"-s"}, {"positional"},       // unknown
    };
    for (const auto &args : bad)
        EXPECT_NE(parse(args), "")
            << args[0] << (args.size() > 1 ? " '" + args[1] + "'" : "");

    // Unmatched words go to the positional hook when there is one.
    std::vector<std::string> seen;
    EXPECT_EQ(util::parseOptions(rows, {"a", "--sw", "b"},
                                 [&](const std::string &arg) {
                                     seen.push_back(arg);
                                     return std::string();
                                 }),
              "");
    EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));

    // The help is rendered from the rows, aliases included.
    const std::string help = util::renderHelp("usage: t\n", rows);
    for (const char *line : {"Heading:", "--sw", "--str, --alias <s>",
                             "--frac <f>", "in [0, 1)"})
        EXPECT_NE(help.find(line), std::string::npos) << line;
}

TEST(RunModes, LegacyIsRejectedAndTimingAcceptedEverywhere)
{
    // pbs_sim --mode
    EXPECT_FALSE(parseArgs({"pi", "--mode", "legacy"}).ok);
    auto sim = parseArgs({"pi", "--mode", "timing"});
    ASSERT_TRUE(sim.ok) << sim.error;
    EXPECT_EQ(sim.opts.mode, "detailed");

    // Spec files and pbs_exp --modes (one key parser).
    EXPECT_FALSE(exp::parseSpecText("mode = legacy\n").ok);
    auto spec = exp::parseSpecText("mode = timing\n");
    ASSERT_TRUE(spec.ok) << spec.error;
    EXPECT_EQ(spec.spec.modes, std::vector<std::string>{"detailed"});

    // pbs_bench --modes
    const auto points = bench::standardPoints();
    EXPECT_THROW(bench::expandModes(points, "legacy"),
                 std::invalid_argument);
    const auto timed = bench::expandModes(points, "timing,mpki");
    ASSERT_EQ(timed.size(), 2 * points.size());
    EXPECT_EQ(timed[0].mode, "detailed");
    EXPECT_EQ(timed[1].mode, "mpki");
    EXPECT_EQ(bench::expandModes(points, "functional-switch")[0].mode,
              "functional-switch");

    // One table maps every name to its core configuration.
    for (const driver::RunMode &m : driver::runModes()) {
        cpu::CoreConfig cfg;
        m.apply(cfg);
        EXPECT_EQ(cfg.execMode, m.exec) << m.name;
        EXPECT_EQ(cfg.mode, m.fidelity) << m.name;
    }
    EXPECT_EQ(driver::findRunMode("legacy"), nullptr);
    EXPECT_THROW(driver::runMode("legacy"), std::invalid_argument);
}

// --- Report registry -------------------------------------------------

TEST(DriverReports, RegistryHasAllHarnesses)
{
    const char *expected[] = {"fig01", "fig06", "fig07", "fig08",
                              "fig09", "table1", "table2", "table3",
                              "table4", "ablation"};
    const auto &reports = driver::allReports();
    for (const char *name : expected) {
        bool found = false;
        for (const auto &rep : reports)
            found = found || rep.name == name;
        EXPECT_TRUE(found) << "missing report " << name;
    }
    EXPECT_EQ(driver::runReport("nonesuch", 1), 2);
}

// --- Batch determinism -----------------------------------------------

DriverOptions
tinyBatch(unsigned seeds, unsigned jobs)
{
    auto r = parseArgs({"--workload", "pi", "--mode", "mpki", "--pbs",
                        "--scale", "2000",
                        "--seeds", std::to_string(seeds),
                        "--jobs", std::to_string(jobs)});
    EXPECT_TRUE(r.ok) << r.error;
    return r.opts;
}

void
expectIdentical(const std::vector<driver::SeedResult> &a,
                const std::vector<driver::SeedResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        const auto &sa = a[i].run.stats, &sb = b[i].run.stats;
        EXPECT_EQ(sa.instructions, sb.instructions);
        EXPECT_EQ(sa.cycles, sb.cycles);
        EXPECT_EQ(sa.branches, sb.branches);
        EXPECT_EQ(sa.probBranches, sb.probBranches);
        EXPECT_EQ(sa.mispredicts, sb.mispredicts);
        EXPECT_EQ(sa.steeredBranches, sb.steeredBranches);
        ASSERT_EQ(a[i].run.outputs.size(), b[i].run.outputs.size());
        for (size_t j = 0; j < a[i].run.outputs.size(); j++) {
            // Bit-identical, not just approximately equal.
            EXPECT_EQ(a[i].run.outputs[j], b[i].run.outputs[j]);
        }
    }
}

TEST(DriverBatch, FixedSeedIsBitIdenticalAcrossRuns)
{
    auto opts = tinyBatch(3, 1);
    expectIdentical(driver::runBatch(opts), driver::runBatch(opts));
}

TEST(DriverBatch, Jobs1AndJobs4AreBitIdentical)
{
    expectIdentical(driver::runBatch(tinyBatch(8, 1)),
                    driver::runBatch(tinyBatch(8, 4)));
}

TEST(DriverBatch, SeedsAreConsecutiveFromBase)
{
    auto opts = tinyBatch(4, 2);
    opts.seed = 100;
    auto rs = driver::runBatch(opts);
    ASSERT_EQ(rs.size(), 4u);
    for (size_t i = 0; i < rs.size(); i++) {
        EXPECT_EQ(rs[i].seed, 100u + i);
        EXPECT_GT(rs[i].run.stats.instructions, 0u);
    }
}

TEST(DriverBatch, MatchesDirectHarnessRun)
{
    // The driver's single-run stats must equal a direct runSim with the
    // equivalent config (the bench harnesses' code path).
    auto r = parseArgs({"--workload", "pi", "--mode", "mpki",
                        "--predictor", "tage_scl", "--scale", "2000"});
    ASSERT_TRUE(r.ok) << r.error;
    auto batch = driver::runBatch(r.opts);
    ASSERT_EQ(batch.size(), 1u);

    const auto &b = workloads::benchmarkByName("pi");
    workloads::WorkloadParams p;
    p.seed = 12345;
    p.scale = 2000;
    auto direct =
        driver::runSim(b, p, driver::functionalConfig("tage-sc-l",
                                                      false));
    EXPECT_EQ(batch[0].run.stats.instructions,
              direct.stats.instructions);
    EXPECT_EQ(batch[0].run.stats.mispredicts, direct.stats.mispredicts);
    EXPECT_EQ(batch[0].run.outputs, direct.outputs);
}

TEST(DriverBatch, FormatBatchMentionsEverySeed)
{
    auto opts = tinyBatch(3, 1);
    opts.seed = 500;
    auto out = driver::formatBatch(opts, driver::runBatch(opts));
    EXPECT_NE(out.find("500"), std::string::npos);
    EXPECT_NE(out.find("501"), std::string::npos);
    EXPECT_NE(out.find("502"), std::string::npos);
    EXPECT_NE(out.find("ipc"), std::string::npos);
}

}  // namespace
