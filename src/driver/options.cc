#include "driver/options.hh"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "util/cli.hh"

namespace pbs::driver {

std::string
canonicalPredictor(const std::string &name)
{
    std::string n;
    n.reserve(name.size());
    for (char c : name)
        n.push_back(c == '_' ? '-' : char(std::tolower(
                        static_cast<unsigned char>(c))));
    // Aliases for the TAGE-SC-L spelling.
    if (n == "tage-scl" || n == "tagescl" || n == "tage-sc-l")
        n = "tage-sc-l";
    if (n == "tour")
        n = "tournament";
    if (n == "taken")
        n = "always-taken";
    if (n == "not-taken")
        n = "always-not-taken";
    for (const auto &known : predictorNames()) {
        if (n == known)
            return known;
    }
    return "";
}

const std::vector<std::string> &
predictorNames()
{
    static const std::vector<std::string> names = {
        "bimodal", "gshare", "local", "loop", "tournament", "tage",
        "tage-sc-l", "always-taken", "always-not-taken", "random",
        "perfect",
    };
    return names;
}

std::vector<util::Option>
simOptions(DriverOptions &o)
{
    using util::flag;
    using util::value;
    std::vector<util::Option> rows = {
        util::section("Simulation options:"),
        value({"--workload", "--benchmark"}, &o.workload, "<name>",
              "benchmark to run (see --list; a bare\n"
              "positional name works too)"),
        value({"--predictor"}, &o.predictor, "<name>",
              "direction predictor (default tage-sc-l;\n"
              "'_' and case are normalized, so tage_scl works)"),
        flag({"--pbs"}, &o.pbs, "enable Probabilistic Branch Support"),
        flag({"--no-pbs"}, nullptr, "disable PBS (the default)",
             [&o](const std::string &) {
                 o.pbs = false;
                 return std::string();
             }),
        flag({"--no-stall"}, &o.noStall,
             "PBS: fall back to prediction under pressure"),
        flag({"--no-context"}, &o.noContext,
             "PBS: disable the Context-Table"),
        flag({"--no-guard"}, &o.noGuard, "PBS: disable the Const-Val guard"),
        flag({"--wide"}, &o.wide, "8-wide / 256-entry-ROB core"),
        value<std::string>(
            {"--mode"}, nullptr, "<m>",
            runModeNames(" | ") +
                "\n(default detailed; see README \"Simulation modes\")",
            0,
            [&o](const std::string &v) {
                const RunMode *m = findRunMode(v);
                if (!m)
                    return "unknown mode: " + v + " (expected " +
                           runModeNames(", ") + ")";
                o.mode = m->canonical;
                return std::string();
            }),
        value<std::string>(
            {"--variant"}, nullptr, "<v>", "marked | predicated | cfd", 0,
            [&o](const std::string &v) {
                if (v == "marked")
                    o.variant = workloads::Variant::Marked;
                else if (v == "predicated")
                    o.variant = workloads::Variant::Predicated;
                else if (v == "cfd")
                    o.variant = workloads::Variant::Cfd;
                else
                    return "unknown variant: " + v;
                return std::string();
            }),
        value({"--scale"}, &o.scale, "<n>",
              "iteration count (0 = workload default)"),
        util::divOption(&o.divisor),
        flag({"--prob-trace"}, &o.probTrace,
             "record the probabilistic-branch trace"),
        util::section("Sampled mode:"),
        util::sampleIntervalOption(&o.sampleInterval),
        util::sampleWarmupOption(&o.sampleWarmup),
        util::sampleMeasureOption(&o.sampleMeasure),
        value({"--sample-max"}, &o.sampleMax, "<n>",
              "sampled: cap on measured samples (0 = all)"),
        util::section("Batch, reports and output:"),
        util::seedOption(&o.seed),
        util::seedsOption(&o.seeds),
        util::jobsOption(&o.jobs),
        value({"--format"}, &o.format, "<f>",
              "batch output: text (default) or json\n"
              "(the pbs-batch-v2 schema; see README)",
              0,
              [](const std::string &v) {
                  return v == "text" || v == "json"
                      ? std::string()
                      : "bad --format value: " + v +
                            " (expected text or json)";
              }),
        value({"--report"}, &o.report, "<name>",
              "render one fig/table report (see --list)"),
        flag({"--list"}, &o.list, "list workloads, predictors, reports"),
        util::helpOption(&o.help),
        util::section("Observability (docs/observability.md):"),
    };
    for (util::Option &row : obsOptions(o.obs))
        rows.push_back(std::move(row));
    return rows;
}

ParseResult
parseArgs(const std::vector<std::string> &args)
{
    ParseResult r;
    DriverOptions &o = r.opts;

    auto fail = [&](const std::string &msg) {
        r.ok = false;
        r.error = msg;
        return r;
    };

    const std::string err = util::parseOptions(
        simOptions(o), args, [&o](const std::string &arg) {
            // A bare benchmark name (pbs_run compatibility).
            if (arg.empty() || arg[0] == '-' || !o.workload.empty())
                return "unknown option: " + arg;
            o.workload = arg;
            return std::string();
        });
    if (!err.empty())
        return fail(err);

    if (o.help || o.list) {
        r.ok = true;
        return r;
    }

    if (o.format == "json" && !o.report.empty())
        return fail("--format json applies to --workload batch runs");

    if (o.report.empty() && o.workload.empty())
        return fail("one of --workload or --report is required");
    if (!o.report.empty() && !o.workload.empty())
        return fail("--workload and --report are mutually exclusive");

    if (o.pbs && o.mode == "functional") {
        return fail("--mode functional executes architecturally only "
                    "(PBS-off semantics); drop --pbs or use --mode "
                    "sampled/detailed");
    }
    if (o.mode != "sampled" &&
        (o.sampleInterval || o.sampleWarmup || o.sampleMeasure ||
         o.sampleMax)) {
        return fail("--sample-* options require --mode sampled");
    }
    if (o.mode == "sampled" && o.probTrace)
        return fail("--prob-trace is not available in sampled mode");

    if (o.report.empty()) {
        const std::string canon = canonicalPredictor(o.predictor);
        if (canon.empty())
            return fail("unknown predictor: " + o.predictor);
        o.predictor = canon;
        try {
            workloads::benchmarkByName(o.workload);
        } catch (const std::invalid_argument &e) {
            return fail(e.what());
        }
    }

    r.ok = true;
    return r;
}

std::string
usageText()
{
    DriverOptions o;
    return util::renderHelp(
        "usage: pbs_sim --workload <name> [options]\n"
        "       pbs_sim --report <name> [--div N] [--jobs N]\n"
        "       pbs_sim --list\n",
        simOptions(o));
}

const std::vector<RunMode> &
runModes()
{
    using cpu::ExecMode;
    using cpu::SimMode;
    static const std::vector<RunMode> modes = {
        {"detailed", "detailed", "detailed", ExecMode::Detailed,
         SimMode::Timing},
        {"timing", "detailed", "detailed", ExecMode::Detailed,
         SimMode::Timing},
        {"mpki", "mpki", "detailed", ExecMode::Detailed,
         SimMode::Functional},
        {"functional", "functional", "functional", ExecMode::Functional,
         SimMode::Timing},
        {"sampled", "sampled", "sampled", ExecMode::Sampled,
         SimMode::Timing},
    };
    return modes;
}

const RunMode *
findRunMode(const std::string &name)
{
    for (const RunMode &m : runModes()) {
        if (name == m.name)
            return &m;
    }
    return nullptr;
}

const RunMode &
runMode(const std::string &name)
{
    if (const RunMode *m = findRunMode(name))
        return *m;
    throw std::invalid_argument("unknown mode: " + name);
}

std::string
runModeNames(const char *sep)
{
    std::string out;
    for (const RunMode &m : runModes())
        out += (out.empty() ? "" : sep) + std::string(m.name);
    return out;
}

cpu::CoreConfig
coreConfig(const DriverOptions &opts)
{
    cpu::CoreConfig cfg = opts.wide ? cpu::CoreConfig::eightWide()
                                    : cpu::CoreConfig::fourWide();
    runMode(opts.mode).apply(cfg);
    if (opts.sampleInterval)
        cfg.sample.interval = opts.sampleInterval;
    if (opts.sampleWarmup)
        cfg.sample.warmup = opts.sampleWarmup;
    if (opts.sampleMeasure)
        cfg.sample.measure = opts.sampleMeasure;
    if (opts.sampleMax)
        cfg.sample.maxSamples = opts.sampleMax;
    cfg.predictor = opts.predictor;
    cfg.pbsEnabled = opts.pbs;
    cfg.pbs.stallOnBusy = !opts.noStall;
    cfg.pbs.contextSupport = !opts.noContext;
    cfg.pbs.constValGuard = !opts.noGuard;
    cfg.traceProbBranches = opts.probTrace;
    return cfg;
}

workloads::WorkloadParams
workloadParams(const DriverOptions &opts, uint64_t seed)
{
    workloads::WorkloadParams p;
    p.seed = seed;
    if (opts.scale) {
        p.scale = opts.scale;
    } else {
        const auto &b = workloads::benchmarkByName(opts.workload);
        p.scale = std::max<uint64_t>(1, b.defaultScale / opts.divisor);
    }
    return p;
}

}  // namespace pbs::driver
