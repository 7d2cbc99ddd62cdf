#include "driver/frontend.hh"

#include <cstdio>
#include <fstream>

#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/telemetry.hh"
#include "util/cli.hh"
#include "util/task_pool.hh"

namespace pbs::driver {

int
takeObsFlag(const std::vector<std::string> &args, size_t &i,
            ObsFlags &flags, std::string &error)
{
    struct FileFlag
    {
        const char *name;
        std::string ObsFlags::*file;
    };
    static const FileFlag kFileFlags[] = {
        {"--trace", &ObsFlags::traceFile},
        {"--metrics", &ObsFlags::metricsFile},
        {"--manifest", &ObsFlags::manifestFile},
        {"--telemetry", &ObsFlags::telemetryFile},
    };
    std::string v;
    for (const FileFlag &f : kFileFlags) {
        const int m = util::takeOptionValue(args, i, f.name, v);
        if (m == 0)
            continue;
        if (m < 0 || v.empty()) {
            error = std::string(f.name) + " needs an output file";
            return -1;
        }
        flags.*f.file = v;
        return 1;
    }
    const int m = util::takeOptionValue(args, i, "--telemetry-interval", v);
    if (m == 0)
        return 0;
    if (m < 0 || !util::parseU64Arg(v, flags.telemetryIntervalMs) ||
        flags.telemetryIntervalMs == 0) {
        error = "bad --telemetry-interval value (ms, >= 1)";
        return -1;
    }
    return 1;
}

const char *
obsUsageText()
{
    return "  --trace <file>       write a pbs-trace-v1 span timeline (Chrome\n"
           "                       trace-event JSON; load in Perfetto) — one\n"
           "                       track per pool worker\n"
           "  --metrics <file>     write a pbs-metrics-v1 snapshot (counters,\n"
           "                       per-phase wall time, per-worker\n"
           "                       utilization; see docs/observability.md)\n"
           "  --manifest <file>    write a pbs-run-v1 run manifest (argv, code\n"
           "                       salt, FNV-128 hash of every artifact this\n"
           "                       run wrote)\n"
           "  --telemetry <file>   append pbs-timeseries-v1 samples (counters,\n"
           "                       pool stats, RSS) while the run is in flight\n"
           "  --telemetry-interval <ms>  sampler tick period (default 1000)\n";
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
