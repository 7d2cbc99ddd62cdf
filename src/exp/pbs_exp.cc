/**
 * @file
 * pbs_exp: the experiment engine CLI.
 *
 *   pbs_exp --spec bench/standard.spec --out results.json --jobs 8
 *   pbs_exp --workloads pi,dop --predictors tournament,tage-sc-l \
 *           --pbs off,on --modes sampled --seeds 4 --csv grid.csv
 *   pbs_exp --report fig07 --div 10 --jobs 8
 *   pbs_exp --workloads pi --modes sampled --campaign --shard 1/2
 *   pbs_exp --gc
 *
 * Sweep results are content-address-cached under .pbs-cache/ (see
 * --cache-dir / --no-cache); artifacts are deterministic; a volatile
 * run summary (cache counters, elapsed time) is printed to stdout
 * (stderr in --report mode).
 */

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "driver/frontend.hh"
#include "driver/reports.hh"
#include "exp/artifact.hh"
#include "exp/cache.hh"
#include "exp/cli.hh"
#include "exp/engine.hh"
#include "exp/pareto.hh"
#include "exp/spec.hh"
#include "obs/manifest.hh"
#include "obs/obs.hh"
#include "obs/sink.hh"
#include "obs/telemetry.hh"

namespace {

using namespace pbs;

int
fail(const std::string &msg)
{
    std::fprintf(stderr, "pbs_exp: %s\n%s", msg.c_str(),
                 exp::usageText().c_str());
    return 2;
}

void
printLists()
{
    std::printf("workloads:\n");
    for (const auto &b : workloads::allBenchmarks())
        std::printf("  %s\n", b.name.c_str());
    std::printf("predictors:\n");
    for (const auto &p : driver::predictorNames())
        std::printf("  %s\n", p.c_str());
    std::printf("reports:\n");
    for (const auto &r : driver::allReports())
        std::printf("  %-10s %s\n", r.name.c_str(), r.title.c_str());
    std::printf("spec keys: workload predictor variant width mode pbs "
                "scale div seed seeds sample-interval sample-warmup "
                "sample-measure sample-grid\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    obs::manifestBegin("pbs_exp", argc, argv);
    exp::CliOptions o;
    const std::string err =
        exp::parseCli(std::vector<std::string>(argv + 1, argv + argc), o);
    if (!err.empty())
        return fail(err);

    if (o.help) {
        std::printf("%s", exp::usageText().c_str());
        return 0;
    }
    if (o.list) {
        printLists();
        return 0;
    }

    const std::string cacheDir = o.noCache ? "" : o.cacheDir;

    if (o.logTimestamps)
        obs::setSinkTimestamps(true);
    driver::startObs("pbs_exp", o.obs);

    if (o.gc) {
        if (!o.specFile.empty() || !o.axes.empty() || !o.out.empty() ||
            !o.csv.empty() || !o.report.empty()) {
            return fail("--gc only prunes the cache; run the sweep or "
                        "report as a separate invocation");
        }
        exp::ResultCache cache(cacheDir);
        auto r = cache.gc(o.gcAll, o.gcGrace);
        std::printf("{\"schema\":\"pbs-exp-gc-v1\",\"kept\":%llu,"
                    "\"removed\":%llu}\n",
                    (unsigned long long)r.kept,
                    (unsigned long long)r.removed);
        return 0;
    }

    exp::EngineConfig ecfg;
    ecfg.cacheDir = cacheDir;
    ecfg.jobs = o.jobs;
    ecfg.progress = !o.quiet;
    ecfg.campaign = o.campaign;
    ecfg.heartbeat = o.progress;
    ecfg.shardIndex = o.shardIndex;
    ecfg.shardCount = o.shardCount;
    exp::Engine engine(ecfg);

    try {
        if (!o.report.empty()) {
            // A report's grid is fixed by the report itself (--div is
            // the one shared knob).
            bool nonDivAxis = false;
            for (const auto &kv : o.axes)
                nonDivAxis = nonDivAxis || kv.first != "div";
            if (!o.specFile.empty() || nonDivAxis)
                return fail("--spec and axis flags have no effect with "
                            "--report");
            if (!o.out.empty() || !o.csv.empty())
                return fail("--out/--csv have no effect with --report "
                            "(reports print to stdout)");
            // Reports print to stdout; keep the summary on stderr.
            driver::ReportContext ctx{engine, o.divisor};
            int rc = driver::runReport(o.report, ctx);
            std::fprintf(stderr, "%s",
                         exp::runSummaryJson(engine.counters(), 0, 0,
                                             "", "").c_str());
            exp::recordEngineMetrics(engine.counters());
            driver::finishObs("pbs_exp", o.obs, exp::versionSalt());
            return rc;
        }

        if (o.specFile.empty() && o.axes.empty())
            return fail("one of --spec, axis flags, --pareto, --report, "
                        "or --gc is required");

        exp::SweepSpec spec;
        if (!o.specFile.empty()) {
            auto parsed = exp::parseSpecFile(o.specFile);
            if (!parsed.ok)
                return fail(parsed.error);
            spec = parsed.spec;
        }
        // Explicitly-passed CLI axes override the file, in CLI order.
        for (const auto &[key, value] : o.axes) {
            std::string err = exp::applySpecKey(spec, key, value);
            if (!err.empty())
                return fail(err);
        }

        if (o.pareto) {
            if (!o.out.empty())
                return fail("--pareto prints a table to stdout; --csv "
                            "writes the artifact");
            exp::ParetoConfig pcfg;
            pcfg.spec = spec;
            pcfg.repeats = o.repeats;
            pcfg.progress = !o.quiet;
            const auto rows = exp::runParetoSweep(pcfg);
            std::printf("%s", exp::paretoTable(rows).c_str());
            if (!o.csv.empty() &&
                !driver::writeArtifact("pbs_exp", o.csv,
                                       exp::paretoCsv(rows)))
                return 1;
            driver::finishObs("pbs_exp", o.obs, exp::versionSalt());
            return 0;
        }

        auto expanded = exp::expandSpec(spec);
        if (!expanded.ok)
            return fail(expanded.error);

        const auto t0 = std::chrono::steady_clock::now();
        {
            obs::Span span("sweep");
            engine.runAll(expanded.points);
        }
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();

        {
            obs::Span span("artifact");
            if (!o.out.empty()) {
                auto text = exp::sweepJson(expanded.points, engine,
                                           exp::specJson(spec));
                if (!driver::writeArtifact("pbs_exp", o.out, text,
                                           "pbs-sweep-v1"))
                    return 1;
            }
            if (!o.csv.empty()) {
                auto text = exp::sweepCsv(expanded.points, engine);
                if (!driver::writeArtifact("pbs_exp", o.csv, text))
                    return 1;
            }
        }

        std::printf("%s",
                    exp::runSummaryJson(engine.counters(),
                                        expanded.points.size(),
                                        uint64_t(elapsed), o.out,
                                        o.csv)
                        .c_str());
        exp::recordEngineMetrics(engine.counters());
        driver::finishObs("pbs_exp", o.obs, exp::versionSalt());
        return 0;
    } catch (const std::exception &e) {
        // Join the sampler before static destruction tears down its
        // state under a live thread.
        obs::telemetryStop();
        std::fprintf(stderr, "pbs_exp: %s\n", e.what());
        return 1;
    }
}
