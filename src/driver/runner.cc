#include "driver/runner.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "sampling/functional.hh"
#include "util/task_pool.hh"

namespace pbs::driver {

RunResult
runSim(const workloads::BenchmarkDesc &b,
       const workloads::WorkloadParams &p, const cpu::CoreConfig &cfg,
       workloads::Variant variant)
{
    RunResult r;
    switch (cfg.execMode) {
      case cpu::ExecMode::Functional: {
        obs::Span span("ff", "functional");
        sampling::FunctionalEngine engine(b.build(p, variant),
                                          cfg.maxInstructions);
        engine.run();
        r.stats = engine.stats();
        r.outputs = b.simOutput(engine.memory());
        obs::counterAdd("insts.ff", r.stats.instructions);
        return r;
      }
      case cpu::ExecMode::Sampled: {
        sampling::SampledRun s =
            sampling::runSampled(b.build(p, variant), cfg);
        r.stats = s.stats;
        r.sampled = true;
        r.estimate = s.est;
        r.outputs = b.simOutput(s.finalState.mem);
        return r;
      }
      case cpu::ExecMode::Detailed:
        break;
    }

    obs::Span span("measure", "detailed");
    cpu::Core core(b.build(p, variant), cfg);
    core.run();
    r.stats = core.stats();
    r.pbs = core.pbs().stats();
    r.outputs = b.simOutput(core.memory());
    r.trace = core.probTrace();
    obs::counterAdd("insts.measure", r.stats.instructions);
    return r;
}

std::vector<SeedResult>
runBatch(const DriverOptions &opts)
{
    const auto &b = workloads::benchmarkByName(opts.workload);
    cpu::CoreConfig cfg = coreConfig(opts);
    const unsigned n = opts.seeds;

    // Seed tasks and each seed's nested checkpoint fan-out share one
    // scheduler: no more choosing which level gets the threads.
    pool::TaskPool::instance().configure(std::max(1u, opts.jobs));

    std::vector<SeedResult> results(n);
    pool::TaskPool::instance().parallelFor(
        n,
        [&](size_t i) {
            const uint64_t seed = opts.seed + i;
            results[i].seed = seed;
            obs::Span span("point",
                           opts.workload + " seed " +
                               std::to_string(seed));
            results[i].run =
                runSim(b, workloadParams(opts, seed), cfg, opts.variant);
        },
        "batch");
    return results;
}

namespace {

/** Batch table for sampled-mode runs: estimates with their CIs. */
std::string
formatSampledBatch(const std::vector<SeedResult> &results)
{
    stats::TextTable table;
    table.header({"seed", "instructions", "samples", "detail%",
                  "ipc", "+/-95%", "mpki", "+/-95%", "output[0]"});

    stats::RunningStat ipc, mpki;
    for (const auto &r : results) {
        const auto &s = r.run.stats;
        const auto &e = r.run.estimate;
        double detailPct = s.instructions
            ? 100.0 * double(e.detailedInstructions) /
                  double(s.instructions)
            : 0.0;
        ipc.push(e.ipc);
        mpki.push(e.mpki);
        table.row({std::to_string(r.seed),
                   std::to_string(s.instructions),
                   e.exact ? "exact" : std::to_string(e.intervals),
                   stats::TextTable::num(detailPct, 1),
                   stats::TextTable::num(e.ipc, 3),
                   stats::TextTable::num(e.ipcCi95, 3),
                   stats::TextTable::num(e.mpki, 2),
                   stats::TextTable::num(e.mpkiCi95, 2),
                   r.run.outputs.empty()
                       ? "-"
                       : stats::TextTable::num(r.run.outputs[0], 5)});
    }

    std::string out = table.render();
    if (results.size() > 1) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\n%zu seeds: ipc %.3f +/- %.3f, mpki %.2f +/- "
                      "%.2f (across-seed 95%% CI)\n",
                      results.size(), ipc.mean(), ipc.ci95HalfWidth(),
                      mpki.mean(), mpki.ci95HalfWidth());
        out += buf;
    }
    return out;
}

}  // namespace

std::string
formatBatch(const DriverOptions &,
            const std::vector<SeedResult> &results)
{
    if (!results.empty() && results.front().run.sampled)
        return formatSampledBatch(results);

    stats::TextTable table;
    table.header({"seed", "instructions", "cycles", "ipc", "mpki",
                  "prob-branches", "steered", "output[0]"});

    stats::RunningStat ipc, mpki, steered;
    for (const auto &r : results) {
        const auto &s = r.run.stats;
        double steeredFrac = s.probBranches
            ? double(s.steeredBranches) / double(s.probBranches) : 0.0;
        ipc.push(s.ipc());
        mpki.push(s.mpki());
        steered.push(steeredFrac);
        table.row({std::to_string(r.seed),
                   std::to_string(s.instructions),
                   std::to_string(s.cycles),
                   stats::TextTable::num(s.ipc(), 3),
                   stats::TextTable::num(s.mpki(), 2),
                   std::to_string(s.probBranches),
                   stats::TextTable::pct(steeredFrac),
                   r.run.outputs.empty()
                       ? "-"
                       : stats::TextTable::num(r.run.outputs[0], 5)});
    }

    std::string out = table.render();
    if (results.size() > 1) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\n%zu seeds: ipc %.3f +/- %.3f, mpki %.2f +/- "
                      "%.2f, steered %.1f%%\n",
                      results.size(), ipc.mean(), ipc.ci95HalfWidth(),
                      mpki.mean(), mpki.ci95HalfWidth(),
                      steered.mean() * 100.0);
        out += buf;
    }
    return out;
}

int
runWorkload(const DriverOptions &opts)
{
    char title[128];
    std::snprintf(title, sizeof(title),
                  "pbs_sim: %s, %s%s, %s%s", opts.workload.c_str(),
                  opts.predictor.c_str(), opts.pbs ? "+pbs" : "",
                  opts.mode.c_str(),
                  opts.wide ? ", 8-wide" : "");
    banner(title, opts.divisor);

    const auto results = runBatch(opts);
    std::printf("%s\n", formatBatch(opts, results).c_str());
    return 0;
}

}  // namespace pbs::driver
