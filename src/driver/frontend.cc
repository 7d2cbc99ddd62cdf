#include "driver/frontend.hh"

#include <cstdio>
#include <fstream>

#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/telemetry.hh"
#include "util/task_pool.hh"

namespace pbs::driver {

std::vector<util::Option>
obsOptions(ObsFlags &flags)
{
    // File names must be non-empty (min length 1).
    return {
        util::value({"--trace"}, &flags.traceFile, "<file>",
                    "write a pbs-trace-v1 span timeline (Chrome\n"
                    "trace-event JSON; load in Perfetto), one\n"
                    "track per pool worker", 1),
        util::value({"--metrics"}, &flags.metricsFile, "<file>",
                    "write a pbs-metrics-v1 snapshot (counters,\n"
                    "per-phase wall time, per-worker utilization)", 1),
        util::value({"--manifest"}, &flags.manifestFile, "<file>",
                    "write a pbs-run-v1 run manifest (argv, code\n"
                    "salt, FNV-128 hash of every artifact written)", 1),
        util::value({"--telemetry"}, &flags.telemetryFile, "<file>",
                    "append pbs-timeseries-v1 samples (counters,\n"
                    "pool stats, RSS) while the run is in flight", 1),
        util::value({"--telemetry-interval"}, &flags.telemetryIntervalMs,
                    "<ms>", "sampler tick period (default 1000)", 1),
    };
}

void
startObs(const char *binary, const ObsFlags &flags)
{
    obs::Options opts;
    opts.trace = !flags.traceFile.empty();
    opts.metrics = !flags.metricsFile.empty();
    if (opts.trace || opts.metrics)
        obs::enable(opts);
    if (!flags.manifestFile.empty())
        obs::manifestEnable();
    if (!flags.telemetryFile.empty() &&
        !obs::telemetryStart(flags.telemetryFile,
                             flags.telemetryIntervalMs)) {
        std::fprintf(stderr, "%s: warning: cannot write telemetry %s\n",
                     binary, flags.telemetryFile.c_str());
    }
}

void
finishObs(const char *binary, const ObsFlags &flags,
          const std::string &salt)
{
    pool::recordPoolMetrics();
    obs::telemetryStop();
    if (!flags.traceFile.empty() && !obs::writeTrace(flags.traceFile))
        std::fprintf(stderr, "%s: warning: cannot write trace %s\n",
                     binary, flags.traceFile.c_str());
    if (!flags.metricsFile.empty() &&
        !obs::writeMetrics(flags.metricsFile)) {
        std::fprintf(stderr, "%s: warning: cannot write metrics %s\n",
                     binary, flags.metricsFile.c_str());
    }
    if (flags.manifestFile.empty())
        return;
    const pool::TaskPool &tp = pool::TaskPool::instance();
    obs::manifestSetSalt(salt);
    obs::manifestSetJobs(tp.jobs());
    obs::manifestSetPolicy(tp.policy() == pool::Policy::Static
                               ? "static"
                               : "steal");
    if (!obs::writeManifest(flags.manifestFile))
        std::fprintf(stderr, "%s: warning: cannot write manifest %s\n",
                     binary, flags.manifestFile.c_str());
}

bool
writeArtifact(const char *binary, const std::string &path,
              const std::string &text, const char *schema)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", binary,
                     path.c_str());
        return false;
    }
    out << text;
    out.close();  // surface flush errors (e.g. disk full) in good()
    if (!out.good()) {
        std::fprintf(stderr, "%s: error writing %s\n", binary,
                     path.c_str());
        return false;
    }
    obs::manifestAddArtifact(path, text, schema);
    return true;
}

}  // namespace pbs::driver
