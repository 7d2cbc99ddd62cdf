/**
 * @file
 * The simulation runner behind `pbs_sim` and every fig/table harness:
 * single-run helpers (formerly bench/harness.hh) plus a deterministic
 * multi-seed batch runner with a `--jobs` thread pool.
 */

#ifndef PBS_DRIVER_RUNNER_HH
#define PBS_DRIVER_RUNNER_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "driver/options.hh"
#include "sampling/sampled.hh"
#include "stats/stats.hh"
#include "stats/table.hh"
#include "workloads/common.hh"

namespace pbs::driver {

/** Result of one simulated run. */
struct RunResult
{
    cpu::CoreStats stats;
    core::PbsStats pbs;
    std::vector<double> outputs;
    std::vector<cpu::ProbTraceEntry> trace;

    /** Sampled-mode extras (valid when sampled is true). */
    bool sampled = false;
    sampling::SampleEstimate estimate{};
};

/** Workload parameters at a harness scale divisor. */
inline workloads::WorkloadParams
paramsFor(const workloads::BenchmarkDesc &b, unsigned divisor,
          uint64_t seed = 12345)
{
    workloads::WorkloadParams p;
    p.seed = seed;
    p.scale = std::max<uint64_t>(1, b.defaultScale / divisor);
    return p;
}

/** Run one benchmark under one configuration. */
RunResult runSim(const workloads::BenchmarkDesc &b,
                 const workloads::WorkloadParams &p,
                 const cpu::CoreConfig &cfg,
                 workloads::Variant variant = workloads::Variant::Marked);

/** Timing config matching the paper's setup. */
inline cpu::CoreConfig
timingConfig(const std::string &predictor, bool pbs, bool wide = false)
{
    cpu::CoreConfig cfg =
        wide ? cpu::CoreConfig::eightWide() : cpu::CoreConfig::fourWide();
    cfg.predictor = predictor;
    cfg.pbsEnabled = pbs;
    return cfg;
}

/** Fast functional config (MPKI-only experiments). */
inline cpu::CoreConfig
functionalConfig(const std::string &predictor, bool pbs)
{
    cpu::CoreConfig cfg;
    cfg.mode = cpu::SimMode::Functional;
    cfg.predictor = predictor;
    cfg.pbsEnabled = pbs;
    return cfg;
}

/** Print a standard harness banner. */
inline void
banner(const std::string &title, unsigned divisor)
{
    std::printf("=== %s ===\n", title.c_str());
    if (divisor != 1)
        std::printf("(workload scales divided by %u)\n", divisor);
    std::printf("\n");
}

/** One row of a batch: the seed it ran and what came out. */
struct SeedResult
{
    uint64_t seed = 0;
    RunResult run;
};

/**
 * Run seeds opts.seed .. opts.seed+opts.seeds-1 of opts.workload on an
 * opts.jobs-thread pool. Results are ordered by seed regardless of the
 * worker interleaving, so a batch is bit-identical across jobs counts.
 */
std::vector<SeedResult> runBatch(const DriverOptions &opts);

/** Render the per-seed + aggregate table `pbs_sim` prints for a batch. */
std::string formatBatch(const DriverOptions &opts,
                        const std::vector<SeedResult> &results);

/** The `pbs_sim --workload ...` entry point. @return exit code. */
int runWorkload(const DriverOptions &opts);

}  // namespace pbs::driver

#endif  // PBS_DRIVER_RUNNER_HH
