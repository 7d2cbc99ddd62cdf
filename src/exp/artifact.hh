/**
 * @file
 * Artifact export: canonical JSON and CSV renderings of sweep results,
 * plus the JSON form of a plain `pbs_sim` seed batch.
 *
 * Artifacts contain only deterministic simulation data — never wall
 * times or cache counters — so the same sweep produces byte-identical
 * files for any jobs count and for cold vs warm caches. Volatile run
 * information (hit/computed counters, elapsed time) lives in the
 * separate run summary that `pbs_exp` prints to stdout.
 */

#ifndef PBS_EXP_ARTIFACT_HH
#define PBS_EXP_ARTIFACT_HH

#include <string>
#include <vector>

#include "driver/options.hh"
#include "driver/runner.hh"
#include "exp/engine.hh"
#include "exp/point.hh"

namespace pbs::exp {

/**
 * JSON artifact of a sweep: schema tag, optional spec echo, and one
 * entry per point (config + metrics), in grid-expansion order.
 * Every point must already be measurable through @p engine.
 */
std::string sweepJson(const std::vector<ExpPoint> &points,
                      Engine &engine,
                      const std::string &specEcho = "");

/** CSV artifact: one header row + one row per point. */
std::string sweepCsv(const std::vector<ExpPoint> &points, Engine &engine);

/**
 * JSON form of a `pbs_sim --workload ... --format json` batch
 * (`pbs-batch-v2`): the resolved configuration plus per-seed metrics
 * (same metric schema as sweep artifacts). Single-seed sampled
 * configurations additionally carry `ckpt_set`, the content hash of
 * the checkpoint set the run corresponds to — the `ckpt/<hash>/`
 * directory a campaign over the same point persists.
 */
std::string batchJson(const driver::DriverOptions &opts,
                      const std::vector<driver::SeedResult> &results);

/** Volatile run summary (counters, timings) for stdout/CI. */
std::string runSummaryJson(const EngineCounters &counters,
                           size_t points, uint64_t elapsedMs,
                           const std::string &out,
                           const std::string &csv);

}  // namespace pbs::exp

#endif  // PBS_EXP_ARTIFACT_HH
