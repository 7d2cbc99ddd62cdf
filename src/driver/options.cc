#include "driver/options.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

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

ParseResult
parseArgs(int argc, const char *const *argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; i++)
        args.emplace_back(argv[i]);
    return parseArgs(args);
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

    // "--key value" / "--key=value": 1 = matched (value in @p v),
    // 0 = different option, -1 = key given without a value.
    size_t i = 0;
    std::string v;
    auto takeValue = [&](const std::string &, const char *key) {
        return util::takeOptionValue(args, i, key, v);
    };

    for (i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        int m;

        if (arg == "--help" || arg == "-h") {
            o.help = true;
        } else if (arg == "--list") {
            o.list = true;
        } else if (arg == "--pbs") {
            o.pbs = true;
        } else if (arg == "--no-pbs") {
            o.pbs = false;
        } else if (arg == "--wide") {
            o.wide = true;
        } else if (arg == "--no-stall") {
            o.noStall = true;
        } else if (arg == "--no-context") {
            o.noContext = true;
        } else if (arg == "--no-guard") {
            o.noGuard = true;
        } else if (arg == "--prob-trace") {
            o.probTrace = true;
        } else if ((m = takeObsFlag(args, i, o.obs, r.error)) != 0) {
            if (m < 0)
                return fail(r.error);
        } else if ((m = takeValue(arg, "--workload")) != 0 ||
                   (m = takeValue(arg, "--benchmark")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.workload = v;
        } else if ((m = takeValue(arg, "--predictor")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.predictor = v;
        } else if ((m = takeValue(arg, "--report")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.report = v;
        } else if ((m = takeValue(arg, "--mode")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (v == "mpki") {
                // The predictor-functional fidelity on the detailed core.
                o.mode = "detailed";
                o.functional = true;
            } else if (v == "detailed" || v == "legacy" ||
                       v == "functional" || v == "sampled") {
                o.mode = v;
                o.functional = false;
            } else {
                return fail("unknown mode: " + v + " (expected "
                            "detailed, legacy, functional, sampled "
                            "or mpki)");
            }
        } else if ((m = takeValue(arg, "--sample-interval")) != 0) {
            if (m < 0 || !util::parseU64Arg(v, o.sampleInterval) ||
                o.sampleInterval == 0) {
                return fail("bad --sample-interval value");
            }
        } else if ((m = takeValue(arg, "--sample-warmup")) != 0) {
            if (m < 0 || !util::parseU64Arg(v, o.sampleWarmup))
                return fail("bad --sample-warmup value");
        } else if ((m = takeValue(arg, "--sample-measure")) != 0) {
            if (m < 0 || !util::parseU64Arg(v, o.sampleMeasure) ||
                o.sampleMeasure == 0) {
                return fail("bad --sample-measure value");
            }
        } else if ((m = takeValue(arg, "--sample-max")) != 0) {
            if (m < 0 || !util::parseU64Arg(v, o.sampleMax))
                return fail("bad --sample-max value");
        } else if ((m = takeValue(arg, "--variant")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (v == "marked")
                o.variant = workloads::Variant::Marked;
            else if (v == "predicated")
                o.variant = workloads::Variant::Predicated;
            else if (v == "cfd")
                o.variant = workloads::Variant::Cfd;
            else
                return fail("unknown variant: " + v);
        } else if ((m = takeValue(arg, "--scale")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!util::parseU64Arg(v, o.scale))
                return fail("bad --scale value: " + v);
        } else if ((m = takeValue(arg, "--div")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!util::parseUnsignedArg(v, o.divisor) || o.divisor == 0)
                return fail("bad --div value: " + v);
        } else if ((m = takeValue(arg, "--seed")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!util::parseU64Arg(v, o.seed))
                return fail("bad --seed value: " + v);
        } else if ((m = takeValue(arg, "--seeds")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!util::parseUnsignedArg(v, o.seeds) || o.seeds == 0)
                return fail("bad --seeds value: " + v);
        } else if ((m = takeValue(arg, "--jobs")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!util::parseUnsignedArg(v, o.jobs) || o.jobs == 0)
                return fail("bad --jobs value: " + v);
        } else if ((m = takeValue(arg, "--format")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (v != "text" && v != "json")
                return fail("bad --format value: " + v +
                            " (expected text or json)");
            o.format = v;
        } else if (!arg.empty() && arg[0] != '-' && o.workload.empty()) {
            // Positional benchmark name (pbs_run compatibility).
            o.workload = arg;
        } else {
            return fail("unknown option: " + arg);
        }
    }

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
    std::ostringstream os;
    os <<
        "usage: pbs_sim --workload <name> [options]\n"
        "       pbs_sim --report <name> [--div N]\n"
        "       pbs_sim --list\n"
        "\n"
        "Simulation options:\n"
        "  --workload <name>    benchmark to run (see --list)\n"
        "  --predictor <name>   direction predictor (default tage-sc-l;\n"
        "                       '_' and case are normalized, so tage_scl"
        " works)\n"
        "  --pbs                enable Probabilistic Branch Support\n"
        "  --no-stall           PBS: fall back to prediction under"
        " pressure\n"
        "  --no-context         PBS: disable the Context-Table\n"
        "  --no-guard           PBS: disable the Const-Val guard\n"
        "  --wide               8-wide / 256-entry-ROB core\n"
        "  --mode <m>           detailed (default) | legacy |\n"
        "                       functional | sampled | mpki\n"
        "                       (see README \"Simulation modes\")\n"
        "  --sample-interval <n>  sampled: insts between measurements\n"
        "  --sample-warmup <n>    sampled: detailed warmup per sample\n"
        "  --sample-measure <n>   sampled: measured insts per sample\n"
        "  --sample-max <n>       sampled: cap on measured samples\n"
        "  --variant <v>        marked | predicated | cfd\n"
        "  --scale <n>          iteration count (0 = workload default)\n"
        "  --div <n>            divide the default scale by n\n"
        "  --prob-trace         record the probabilistic-branch trace\n"
        "\n"
        "Observability (docs/observability.md):\n"
       << obsUsageText() <<
        "\n"
        "Batch options:\n"
        "  --seed <n>           first seed (default 12345)\n"
        "  --seeds <n>          run n consecutive seeds (default 1)\n"
        "  --jobs <n>           worker threads for the batch (default 1)\n"
        "  --format <f>         batch output: text (default) or json\n"
        "                       (the pbs-batch-v2 schema; see README)\n"
        "\n"
        "Reports (the paper's fig/table harnesses):\n"
        "  --report <name>      render one report (see --list)\n"
        "  --div <n>            quick-look scale divisor\n"
        "  --jobs <n>           worker threads for the report's sweep\n";
    return os.str();
}

cpu::CoreConfig
coreConfig(const DriverOptions &opts)
{
    cpu::CoreConfig cfg = opts.wide ? cpu::CoreConfig::eightWide()
                                    : cpu::CoreConfig::fourWide();
    if (opts.mode == "legacy") {
        cfg.execMode = cpu::ExecMode::Legacy;
        cfg.execPath = cpu::ExecPath::LegacyProgram;
    } else if (opts.mode == "functional") {
        cfg.execMode = cpu::ExecMode::Functional;
    } else if (opts.mode == "sampled") {
        cfg.execMode = cpu::ExecMode::Sampled;
    }
    if (opts.sampleInterval)
        cfg.sample.interval = opts.sampleInterval;
    if (opts.sampleWarmup)
        cfg.sample.warmup = opts.sampleWarmup;
    if (opts.sampleMeasure)
        cfg.sample.measure = opts.sampleMeasure;
    if (opts.sampleMax)
        cfg.sample.maxSamples = opts.sampleMax;
    if (opts.functional)
        cfg.mode = cpu::SimMode::Functional;
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
