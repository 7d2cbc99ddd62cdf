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
#include "util/cli.hh"
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

    /** Run mode, canonical name from runModes(): detailed | mpki |
     *  functional | sampled. */
    std::string mode = "detailed";
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

/** Parse `pbs_sim` arguments (argv[0] excluded). */
ParseResult parseArgs(const std::vector<std::string> &args);

/** The option table `pbs_sim` parses into @p o (and renders --help from). */
std::vector<util::Option> simOptions(DriverOptions &o);

/** The full usage text. */
std::string usageText();

/**
 * One name of the run-mode vocabulary that `pbs_sim --mode`, `pbs_exp
 * --modes`, spec `mode =` and `pbs_bench --modes` share, and the core
 * configuration it selects.
 */
struct RunMode
{
    const char *name;       ///< the spelling users type
    const char *canonical;  ///< what options store ("timing" -> "detailed")
    /** The artifacts' `mode` echo (ExpPoint, pbs-batch-v2): mpki is a
     *  detailed-mode point with `functional` set. */
    const char *pointMode;
    cpu::ExecMode exec;
    cpu::SimMode fidelity;

    void
    apply(cpu::CoreConfig &cfg) const
    {
        cfg.execMode = exec;
        cfg.mode = fidelity;
    }
};

/** The run modes, in help order. */
const std::vector<RunMode> &runModes();

/** The mode spelled @p name (aliases included), or nullptr. */
const RunMode *findRunMode(const std::string &name);

/** findRunMode() that throws std::invalid_argument on unknown names. */
const RunMode &runMode(const std::string &name);

/** The mode spellings joined by @p sep, for help and error text. */
std::string runModeNames(const char *sep);

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
