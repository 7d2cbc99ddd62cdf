/**
 * @file
 * `pbs_bench`: the simulated-MIPS throughput harness.
 *
 *   pbs_bench --quick --workloads pi --modes detailed,mpki --out b.json
 *   pbs_bench --help     (every flag, rendered from the option table)
 *
 * Measures every registered workload x predictor pair (plus PBS-on
 * points), optionally crossed with execution modes (--modes
 * detailed,functional,sampled prints each pair's detailed, functional
 * and sampled MIPS next to each other), and emits the canonical
 * `pbs-bench-v2` JSON artifact (see src/bench/bench.hh for the
 * determinism contract). With --baseline, exits non-zero when any
 * point regresses more than --max-regress (default 0.20) below the
 * baseline MIPS; v1 baselines (the checked-in bench/baseline.json)
 * are read as all-detailed.
 *
 * Refreshing the checked-in baseline after an intentional perf change:
 *   ./build/pbs_bench --quick --write-baseline bench/baseline.json
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench.hh"
#include "driver/frontend.hh"
#include "driver/options.hh"
#include "exp/cache.hh"
#include "obs/manifest.hh"
#include "obs/telemetry.hh"
#include "util/cli.hh"

namespace {

using namespace pbs;

const char *const kSynopsis =
    "usage: pbs_bench [--quick] [--jobs N] [--repeats N] [--div N] "
    "[options]\n";

}  // namespace

int
main(int argc, char **argv)
{
    obs::manifestBegin("pbs_bench", argc, argv);
    bench::BenchConfig cfg;
    std::string out, baseline, writeBaseline;
    driver::ObsFlags obsFlags;
    std::string workloads, predictors, modes;
    double maxRegress = 0.20;
    unsigned divisor = 0;  // 0 = not given: 4, or 50 with --quick
    bool list = false;
    bool help = false;

    std::vector<util::Option> rows = {
        util::section("Measurement grid:"),
        util::flag({"--quick"}, &cfg.quick,
                   "CI-fast scales (divisor 50 unless --div given)"),
        util::divOption(&divisor),
        util::seedOption(&cfg.seed),
        util::value({"--workloads"}, &workloads, "<list>",
                    "filter the point grid by workload"),
        util::value({"--predictors"}, &predictors, "<list>",
                    "filter the point grid by predictor"),
        util::value({"--modes", "--mode"}, &modes, "<list>",
                    "cross each pair with execution modes:\n" +
                        driver::runModeNames(" | ") + " |\n"
                        "functional-switch (default detailed)"),
        util::sampleIntervalOption(&cfg.sample.interval),
        util::sampleWarmupOption(&cfg.sample.warmup),
        util::sampleMeasureOption(&cfg.sample.measure),
        util::flag({"--list"}, &list, "print the measurement grid and exit"),
        util::helpOption(&help),
        util::section("Timing and the baseline gate:"),
        util::jobsOption(&cfg.jobs),
        util::value({"--repeats"}, &cfg.repeats, "<n>",
                    "timing repetitions per point (best kept)", 1),
        util::value({"--out"}, &out, "<file>",
                    "write the pbs-bench-v2 JSON artifact"),
        util::value({"--baseline"}, &baseline, "<file>",
                    "compare against a baseline artifact (v1 or v2)"),
        util::maxRegressOption(&maxRegress,
                               "regression threshold, a fraction in "
                               "[0, 1)\n(default 0.20)",
                               1.0, false),
        util::value({"--write-baseline"}, &writeBaseline, "<file>",
                    "write the artifact as the new baseline"),
        util::section("Observability (docs/observability.md):"),
    };
    for (util::Option &row : driver::obsOptions(obsFlags))
        rows.push_back(std::move(row));

    auto usage = [&](const std::string &msg) {
        std::fprintf(stderr, "pbs_bench: %s\n%s", msg.c_str(),
                     util::renderHelp(kSynopsis, rows).c_str());
        return 2;
    };
    const std::string err = util::parseOptions(
        rows, std::vector<std::string>(argv + 1, argv + argc));
    if (!err.empty())
        return usage(err);
    if (help) {
        std::printf("%s", util::renderHelp(kSynopsis, rows).c_str());
        return 0;
    }
    if (divisor)
        cfg.divisor = divisor;
    else if (cfg.quick)
        cfg.divisor = 50;

    // Sampling parameters only shape sampled-mode points.
    const cpu::SampleParams defaults{};
    if (!(cfg.sample == defaults) &&
        modes.find("sampled") == std::string::npos) {
        return usage("--sample-* options require sampled in --modes");
    }

    std::vector<bench::BenchPoint> points;
    try {
        points = bench::expandModes(
            bench::filterPoints(bench::standardPoints(), workloads,
                                predictors),
            modes);
    } catch (const std::exception &e) {
        return usage(e.what());
    }
    if (points.empty())
        return usage("no points match the filters");
    if (list) {
        for (const auto &p : points)
            std::printf("%s %s pbs=%d %s\n", p.workload.c_str(),
                        p.predictor.c_str(), p.pbs ? 1 : 0,
                        p.mode.c_str());
        return 0;
    }

    driver::startObs("pbs_bench", obsFlags);

    std::fprintf(stderr,
                 "pbs_bench: %zu points, div %u, %u job(s), %u repeat(s)\n",
                 points.size(), cfg.divisor, cfg.jobs, cfg.repeats);

    const auto results = bench::runBench(points, cfg);

    // Human-readable summary on stdout.
    std::printf("%-10s %-16s %-4s %-10s %14s %10s %10s\n", "workload",
                "predictor", "pbs", "mode", "instructions", "wall_ms",
                "mips");
    for (const auto &r : results) {
        std::printf("%-10s %-16s %-4d %-10s %14llu %10.2f %10.2f\n",
                    r.point.workload.c_str(), r.point.predictor.c_str(),
                    r.point.pbs ? 1 : 0, r.point.mode.c_str(),
                    static_cast<unsigned long long>(
                        r.metrics.instructions),
                    r.wallMs, r.mips);
    }
    std::printf("geomean: %.2f MIPS\n", bench::geomeanMips(results));

    const std::string artifact = bench::benchJson(results, cfg);
    for (const std::string *path : {&out, &writeBaseline}) {
        if (!path->empty() &&
            !driver::writeArtifact("pbs_bench", *path, artifact,
                                   "pbs-bench-v2")) {
            obs::telemetryStop();
            return 1;
        }
    }
    driver::finishObs("pbs_bench", obsFlags, exp::versionSalt());

    if (!baseline.empty()) {
        std::ifstream is(baseline, std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "pbs_bench: cannot read %s\n",
                         baseline.c_str());
            return 1;
        }
        std::ostringstream ss;
        ss << is.rdbuf();
        std::string report;
        unsigned regressions = 0;
        try {
            regressions = bench::compareBaseline(results, ss.str(),
                                                 maxRegress, report);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "pbs_bench: %s\n", e.what());
            return 1;
        }
        std::printf("\nbaseline comparison (max regress %.0f%%):\n%s",
                    maxRegress * 100.0, report.c_str());
        if (regressions) {
            std::fprintf(stderr,
                         "pbs_bench: %u point(s) regressed beyond "
                         "%.0f%%\n", regressions, maxRegress * 100.0);
            return 1;
        }
        std::printf("baseline comparison OK\n");
    }
    return 0;
}
