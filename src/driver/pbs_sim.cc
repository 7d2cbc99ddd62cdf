/**
 * @file
 * pbs_sim: the unified simulation driver.
 *
 *   pbs_sim --workload pi --predictor tage_scl --seeds 8 --jobs 4
 *   pbs_sim --report fig07 --div 10
 *   pbs_sim --list
 */

#include <cstdio>
#include <exception>

#include "driver/frontend.hh"
#include "driver/options.hh"
#include "driver/reports.hh"
#include "driver/runner.hh"
#include "exp/artifact.hh"
#include "exp/cache.hh"
#include "obs/manifest.hh"
#include "obs/telemetry.hh"

namespace {

using namespace pbs;

void
printLists()
{
    std::printf("workloads:\n");
    for (const auto &b : workloads::allBenchmarks())
        std::printf("  %-12s (category %d, %u prob. branch%s)\n",
                    b.name.c_str(), b.category, b.numProbBranches,
                    b.numProbBranches == 1 ? "" : "es");
    std::printf("predictors:\n");
    for (const auto &p : driver::predictorNames())
        std::printf("  %s\n", p.c_str());
    std::printf("reports:\n");
    for (const auto &r : driver::allReports())
        std::printf("  %-10s %s\n", r.name.c_str(), r.title.c_str());
}

}  // namespace

int
main(int argc, char **argv)
{
    obs::manifestBegin("pbs_sim", argc, argv);
    auto parsed = driver::parseArgs({argv + 1, argv + argc});
    if (!parsed.ok) {
        std::fprintf(stderr, "pbs_sim: %s\n%s", parsed.error.c_str(),
                     driver::usageText().c_str());
        return 2;
    }
    const driver::DriverOptions &opts = parsed.opts;

    if (opts.help) {
        std::printf("%s", driver::usageText().c_str());
        return 0;
    }
    if (opts.list) {
        printLists();
        return 0;
    }

    driver::startObs("pbs_sim", opts.obs);

    try {
        int rc;
        if (!opts.report.empty()) {
            rc = driver::runReport(opts.report, opts.divisor, opts.jobs);
        } else if (opts.format == "json") {
            auto results = driver::runBatch(opts);
            std::printf("%s", exp::batchJson(opts, results).c_str());
            rc = 0;
        } else {
            rc = driver::runWorkload(opts);
        }
        driver::finishObs("pbs_sim", opts.obs, exp::versionSalt());
        return rc;
    } catch (const std::exception &e) {
        // Join the sampler before static destruction tears down its
        // state under a live thread.
        obs::telemetryStop();
        std::fprintf(stderr, "pbs_sim: %s\n", e.what());
        return 1;
    }
}
