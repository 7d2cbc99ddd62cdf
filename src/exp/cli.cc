#include "exp/cli.hh"

#include "exp/spec.hh"
#include "util/cli.hh"

namespace pbs::exp {

namespace {

/** Parse a 1-based slice spec "K/N" (1 <= K <= N). */
bool
parseShard(const std::string &v, unsigned &k, unsigned &n)
{
    const size_t slash = v.find('/');
    return slash != std::string::npos &&
           util::parseUnsignedArg(v.substr(0, slash), k) &&
           util::parseUnsignedArg(v.substr(slash + 1), n) && k >= 1 &&
           k <= n;
}

// The usage text around the shared observability block.
const char *const kUsageHead =
    "usage: pbs_exp --spec <file> [axis flags] [output flags]\n"
    "       pbs_exp --workloads <w1,w2,...> [axis flags] [output flags]\n"
    "       pbs_exp --pareto --workloads <list> [axis flags] [--csv F]\n"
    "       pbs_exp --campaign --shard <k/n> --spec <file> [axis flags]\n"
    "       pbs_exp --report <name> [--div N]\n"
    "       pbs_exp --gc [--all] [--grace <seconds>]\n"
    "       pbs_exp --list\n"
    "\n"
    "Sweep axes (comma-separated lists; override the spec file):\n"
    "  --spec <file>        key=value sweep spec (see bench/*.spec)\n"
    "  --workloads <list>   benchmarks, or 'all'\n"
    "  --predictors <list>  direction predictors\n"
    "  --variants <list>    marked | predicated | cfd\n"
    "  --widths <list>      4 | 8\n"
    "  --modes <list>       detailed | legacy | functional | sampled |\n"
    "                       mpki (timing = detailed; see README)\n"
    "  --pbs <list>         off | on | no-stall | no-context | no-guard\n"
    "  --scales <list>      explicit iteration counts\n"
    "  --div <n>            divide each workload's default scale\n"
    "  --seed <n>           first seed (default 12345)\n"
    "  --seeds <n>          consecutive seeds per config (default 1)\n"
    "  --sample-interval <n>  sampled: insts between measurements\n"
    "  --sample-warmup <n>    sampled: detailed warmup per sample\n"
    "  --sample-measure <n>   sampled: measured insts per sample\n"
    "  --sample-grid <list>   sampled: interval/warmup/measure triples\n"
    "                       (a true axis over sampled points; drives\n"
    "                       the --pareto sweep)\n"
    "\n"
    "Execution and output:\n"
    "  --jobs <n>           worker threads (default 1)\n"
    "  --out <file>         write the JSON artifact\n"
    "  --csv <file>         write the CSV artifact\n"
    "  --cache-dir <dir>    result cache location (default .pbs-cache)\n"
    "  --no-cache           disable the result cache\n"
    "  --campaign           group sampled points by checkpoint set:\n"
    "                       capture each (workload, variant, scale,\n"
    "                       seed, interval) once, fan every config out\n"
    "                       over the shared set, and resume from\n"
    "                       per-interval cache partials\n"
    "  --shard <k/n>        with --campaign: measure only slice k of n\n"
    "                       of every sampled point's intervals and store\n"
    "                       them as cache partials (no --out/--csv); a\n"
    "                       later unsliced --campaign run resumes from\n"
    "                       them and writes the artifact\n"
    "  --quiet              suppress per-point progress on stderr\n"
    "  --progress           ~1 Hz heartbeat line on stderr (points\n"
    "                       done/total + cost-model ETA; composes with\n"
    "                       --quiet to get only the heartbeat)\n"
    "  --log-timestamps     prefix every progress/warning line with a\n"
    "                       UTC ISO-8601 timestamp and severity\n";

const char *const kUsageTail =
    "\n"
    "Pareto:\n"
    "  --pareto             error-vs-MIPS sweep over the sample grid\n"
    "                       (sampled vs detailed reference; table to\n"
    "                       stdout, --csv for the artifact)\n"
    "  --repeats <n>        --pareto: wall-time repeats per point\n"
    "\n"
    "Maintenance and reports:\n"
    "  --gc                 prune cache entries from other code versions\n"
    "  --gc --all           prune the entire cache\n"
    "  --grace <seconds>    --gc: spare anything modified this recently\n"
    "                       (default 300; 0 prunes unconditionally)\n"
    "  --report <name>      render a fig/table report through the\n"
    "                       cached engine (identical output to pbs_sim)\n"
    "  --list               list workloads, predictors, reports\n";

}  // namespace

std::string
usageText()
{
    return kUsageHead + std::string(driver::obsUsageText()) + kUsageTail;
}

std::string
parseCli(const std::vector<std::string> &args, CliOptions &o)
{
    size_t i = 0;
    std::string v;
    auto takeValue = [&](const std::string &, const char *key) {
        return util::takeOptionValue(args, i, key, v);
    };

    // Axis flags map straight onto spec keys.
    struct AxisFlag
    {
        const char *flag;
        const char *key;
    };
    const AxisFlag axisFlags[] = {
        {"--workloads", "workload"},  {"--workload", "workload"},
        {"--predictors", "predictor"}, {"--predictor", "predictor"},
        {"--variants", "variant"},    {"--widths", "width"},
        {"--modes", "mode"},          {"--mode", "mode"},
        {"--pbs", "pbs"},             {"--scales", "scale"},
        {"--scale", "scale"},         {"--seed", "seed"},
        {"--seeds", "seeds"},
        {"--sample-interval", "sample-interval"},
        {"--sample-warmup", "sample-warmup"},
        {"--sample-measure", "sample-measure"},
        {"--sample-grid", "sample-grid"},
    };

    for (i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        int m;
        if (arg == "--help" || arg == "-h") {
            o.help = true;
            continue;
        }
        if (arg == "--list") {
            o.list = true;
            continue;
        }
        if (arg == "--gc") {
            o.gc = true;
            continue;
        }
        if (arg == "--pareto") {
            o.pareto = true;
            continue;
        }
        if ((m = takeValue(arg, "--repeats")) != 0) {
            if (m < 0 || !util::parseUnsignedArg(v, o.repeats) ||
                o.repeats == 0)
                return "bad --repeats value";
            continue;
        }
        if (arg == "--all") {
            o.gcAll = true;
            continue;
        }
        if (arg == "--no-cache") {
            o.noCache = true;
            continue;
        }
        if (arg == "--campaign") {
            o.campaign = true;
            continue;
        }
        if ((m = takeValue(arg, "--shard")) != 0) {
            if (m < 0 || !parseShard(v, o.shardIndex, o.shardCount))
                return "bad --shard value (expected K/N with "
                       "1 <= K <= N, e.g. 1/2)";
            continue;
        }
        if ((m = takeValue(arg, "--grace")) != 0) {
            if (m < 0)
                return arg + " needs a value";
            if (!util::parseU64Arg(v, o.gcGrace))
                return "bad --grace value: " + v;
            continue;
        }
        if (arg == "--quiet") {
            o.quiet = true;
            continue;
        }
        if (arg == "--progress") {
            o.progress = true;
            continue;
        }
        if (arg == "--log-timestamps") {
            o.logTimestamps = true;
            continue;
        }
        std::string err;
        if ((m = driver::takeObsFlag(args, i, o.obs, err)) != 0) {
            if (m < 0)
                return err;
            continue;
        }
        if ((m = takeValue(arg, "--spec")) != 0) {
            if (m < 0)
                return arg + " needs a value";
            o.specFile = v;
            continue;
        }
        if ((m = takeValue(arg, "--out")) != 0) {
            if (m < 0)
                return arg + " needs a value";
            o.out = v;
            continue;
        }
        if ((m = takeValue(arg, "--csv")) != 0) {
            if (m < 0)
                return arg + " needs a value";
            o.csv = v;
            continue;
        }
        if ((m = takeValue(arg, "--report")) != 0) {
            if (m < 0)
                return arg + " needs a value";
            o.report = v;
            continue;
        }
        if ((m = takeValue(arg, "--cache-dir")) != 0) {
            if (m < 0)
                return arg + " needs a value";
            o.cacheDir = v;
            continue;
        }
        if ((m = takeValue(arg, "--jobs")) != 0) {
            if (m < 0)
                return arg + " needs a value";
            if (!util::parseUnsignedArg(v, o.jobs) || o.jobs == 0)
                return "bad --jobs value: " + v;
            continue;
        }
        if ((m = takeValue(arg, "--div")) != 0) {
            if (m < 0)
                return arg + " needs a value";
            if (!util::parseUnsignedArg(v, o.divisor) ||
                o.divisor == 0) {
                return "bad --div value: " + v;
            }
            o.axes.emplace_back("div", v);
            continue;
        }

        bool matched = false;
        for (const auto &axis : axisFlags) {
            if ((m = takeValue(arg, axis.flag)) != 0) {
                if (m < 0)
                    return arg + " needs a value";
                // Validate eagerly so bad flags fail before any work.
                SweepSpec probe;
                std::string bad = applySpecKey(probe, axis.key, v);
                if (!bad.empty())
                    return bad;
                o.axes.emplace_back(axis.key, v);
                matched = true;
                break;
            }
        }
        if (!matched)
            return "unknown option: " + arg;
    }

    if (o.shardCount) {
        if (!o.campaign)
            return "--shard slices a campaign; add --campaign";
        if (o.noCache)
            return "--shard stores its slice in the cache; drop "
                   "--no-cache";
        if (!o.out.empty() || !o.csv.empty())
            return "--shard writes no artifact; run the unsliced "
                   "--campaign afterwards for --out/--csv";
        if (!o.report.empty() || o.pareto || o.gc)
            return "--shard applies to campaign sweeps only";
    }
    return "";
}

}  // namespace pbs::exp
