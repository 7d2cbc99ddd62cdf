/**
 * @file
 * Command-line options for the unified `pbs_sim` driver.
 *
 * One CLI selects the workload (from workloads::registry), the direction
 * predictor, the core width and simulation fidelity, the scale, and the
 * seed(s); `--seeds N --jobs M` batch-runs N consecutive seeds on an
 * M-thread pool. `--report <name>` instead renders one of the paper's
 * fig/table harnesses (the bench/ binaries are thin shims over this).
 */

#ifndef PBS_DRIVER_OPTIONS_HH
#define PBS_DRIVER_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core_config.hh"
#include "driver/frontend.hh"
#include "workloads/common.hh"

namespace pbs::driver {

/** Everything `pbs_sim` can be told to do. */
struct DriverOptions
{
    // What to run.
    std::string workload;            ///< benchmark name (registry)
    std::string report;              ///< fig/table report name
    bool list = false;               ///< print workloads/predictors/reports
    bool help = false;

    // Simulated machine.
    std::string predictor = "tage-sc-l";
    bool wide = false;               ///< 8-wide / 256-entry ROB

    /**
     * Execution mode: detailed | legacy | functional | sampled (the
     * CLI's "--mode mpki" selects detailed plus `functional`).
     */
    std::string mode = "detailed";

    /** The mpki fidelity: SimMode::Functional on the detailed core
     *  (predictor/PBS updates without timing; `--mode mpki`). */
    bool functional = false;
    bool pbs = false;                ///< Probabilistic Branch Support
    bool noStall = false;            ///< pbs.stallOnBusy = false
    bool noContext = false;          ///< pbs.contextSupport = false
    bool noGuard = false;            ///< pbs.constValGuard = false
    bool probTrace = false;          ///< record the prob-branch trace

    // Sampling parameters (mode == "sampled"; 0 = subsystem default).
    uint64_t sampleInterval = 0;     ///< insts between measurements
    uint64_t sampleWarmup = 0;       ///< detailed warmup per sample
    uint64_t sampleMeasure = 0;      ///< measured insts per sample
    uint64_t sampleMax = 0;          ///< cap on samples (0 = all)

    // Workload parameters.
    workloads::Variant variant = workloads::Variant::Marked;
    uint64_t scale = 0;              ///< 0 = workload default
    unsigned divisor = 1;            ///< divide the default scale
    uint64_t seed = 12345;

    // Batch control.
    unsigned seeds = 1;              ///< run seeds seed..seed+N-1
    unsigned jobs = 1;               ///< worker threads for the batch

    // Output control.
    std::string format = "text";     ///< "text" | "json" (batch runs)

    ObsFlags obs;                    ///< observability artifacts
};

/** Outcome of parsing an argv vector. */
struct ParseResult
{
    bool ok = false;
    std::string error;               ///< set when !ok (may be empty)
    DriverOptions opts;
};

/** Parse `pbs_sim` arguments (argv[0] is skipped). */
ParseResult parseArgs(int argc, const char *const *argv);

/** Convenience overload for tests. */
ParseResult parseArgs(const std::vector<std::string> &args);

/** The full usage text. */
std::string usageText();

/**
 * Canonicalize a predictor name: lower-cased, '_' -> '-', and common
 * aliases resolved (e.g. "tage_scl" and "tage-scl" -> "tage-sc-l").
 * @return the canonical name, or the empty string when unknown.
 */
std::string canonicalPredictor(const std::string &name);

/** All predictor names accepted by bpred::makePredictor. */
const std::vector<std::string> &predictorNames();

/** Build the core configuration an options set describes. */
cpu::CoreConfig coreConfig(const DriverOptions &opts);

/** Workload parameters for one seed of an options set. */
workloads::WorkloadParams workloadParams(const DriverOptions &opts,
                                         uint64_t seed);

}  // namespace pbs::driver

#endif  // PBS_DRIVER_OPTIONS_HH
