/**
 * @file
 * The run front end shared by `pbs_sim`, `pbs_exp` and `pbs_bench`:
 * the observability flags (`--trace --metrics --manifest --telemetry
 * --telemetry-interval`), the collectors' start/finish lifecycle, and
 * the artifact writer that registers every file it writes in the run
 * manifest.
 *
 * A run calls startObs() once its options are parsed, writes its
 * artifacts through writeArtifact(), and calls finishObs() last. The
 * finish order is fixed here, once: pool metrics, then stop the
 * telemetry sampler (its final sample must be registered before the
 * manifest hashes the artifact list), then the trace, the metrics
 * snapshot, and the manifest.
 */

#ifndef PBS_DRIVER_FRONTEND_HH
#define PBS_DRIVER_FRONTEND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/cli.hh"

namespace pbs::driver {

/** The observability artifacts a run was asked for (empty = off). */
struct ObsFlags
{
    std::string traceFile;                ///< pbs-trace-v1 span timeline
    std::string metricsFile;              ///< pbs-metrics-v1 snapshot
    std::string manifestFile;             ///< pbs-run-v1 run manifest
    std::string telemetryFile;            ///< pbs-timeseries-v1 sampler
    uint64_t telemetryIntervalMs = 1000;  ///< sampler tick period
};

/** The five observability rows of every run binary's option table. */
std::vector<util::Option> obsOptions(ObsFlags &flags);

/** Enable the requested collectors and start the telemetry sampler. */
void startObs(const char *binary, const ObsFlags &flags);

/**
 * Write the requested observability artifacts, in the fixed finish
 * order. The manifest records @p salt (the code-version salt), the
 * pool's worker count and its scheduling policy. Write failures are
 * warnings on stderr, never a failed run.
 */
void finishObs(const char *binary, const ObsFlags &flags,
               const std::string &salt);

/**
 * Write @p text to @p path and register it in the run manifest under
 * @p schema ("" for schema-less formats such as CSV). The stream is
 * closed before its state is checked, so a failed flush (a full disk)
 * fails the write. @return false after naming the file on stderr.
 */
bool writeArtifact(const char *binary, const std::string &path,
                   const std::string &text, const char *schema = "");

}  // namespace pbs::driver

#endif  // PBS_DRIVER_FRONTEND_HH
