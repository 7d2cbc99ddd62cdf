#include "exp/cli.hh"

#include "driver/options.hh"
#include "exp/spec.hh"
#include "util/cli.hh"

namespace pbs::exp {

namespace {

/** Parse a 1-based slice spec "K/N" (1 <= K <= N < 2^32). */
bool
parseShard(const std::string &v, unsigned &k, unsigned &n)
{
    const size_t slash = v.find('/');
    uint64_t a = 0, b = 0;
    if (slash == std::string::npos ||
        !util::parseU64Arg(v.substr(0, slash), a) ||
        !util::parseU64Arg(v.substr(slash + 1), b) || a < 1 || a > b ||
        b > 0xffffffffull)
        return false;
    k = unsigned(a);
    n = unsigned(b);
    return true;
}

}  // namespace

std::vector<util::Option>
cliOptions(CliOptions &o)
{
    using util::flag;
    // Axis flags map onto spec keys; validated eagerly (so a bad flag
    // fails before any work) and applied over the spec file in
    // command-line order.
    auto axis = [&o](const char *key) {
        return [&o, key](const std::string &v) {
            SweepSpec probe;
            std::string bad = applySpecKey(probe, key, v);
            if (bad.empty())
                o.axes.emplace_back(key, v);
            return bad;
        };
    };
    auto axisRow = [&](std::vector<std::string> names, const char *key,
                       std::string help) {
        return util::value<std::string>(std::move(names), nullptr, "<list>",
                                        std::move(help), 0, axis(key));
    };
    std::vector<util::Option> rows = {
        util::section("Sweep axes (comma-separated lists; override the "
                      "spec file):"),
        util::value({"--spec"}, &o.specFile, "<file>",
                    "key=value sweep spec (see bench/*.spec)"),
        axisRow({"--workloads", "--workload"}, "workload",
                "benchmarks, or 'all'"),
        axisRow({"--predictors", "--predictor"}, "predictor",
                "direction predictors"),
        axisRow({"--variants"}, "variant", "marked | predicated | cfd"),
        axisRow({"--widths"}, "width", "4 | 8"),
        axisRow({"--modes", "--mode"}, "mode",
                driver::runModeNames(" | ") + "\n(see README)"),
        axisRow({"--pbs"}, "pbs",
                "off | on | no-stall | no-context | no-guard"),
        axisRow({"--scales", "--scale"}, "scale",
                "explicit iteration counts"),
        util::divOption(&o.divisor, axis("div")),
        util::seedOption(nullptr, axis("seed")),
        util::seedsOption(nullptr, axis("seeds")),
        util::sampleIntervalOption(nullptr, axis("sample-interval")),
        util::sampleWarmupOption(nullptr, axis("sample-warmup")),
        util::sampleMeasureOption(nullptr, axis("sample-measure")),
        axisRow({"--sample-grid"}, "sample-grid",
                "sampled: interval/warmup/measure triples\n"
                "(a true axis over sampled points; drives\n"
                "the --pareto sweep)"),
        util::section("Execution and output:"),
        util::jobsOption(&o.jobs),
        util::value({"--out"}, &o.out, "<file>", "write the JSON artifact"),
        util::value({"--csv"}, &o.csv, "<file>", "write the CSV artifact"),
        util::value({"--cache-dir"}, &o.cacheDir, "<dir>",
                    "result cache location (default .pbs-cache)"),
        flag({"--no-cache"}, &o.noCache, "disable the result cache"),
        flag({"--campaign"}, &o.campaign,
             "group sampled points by checkpoint set:\n"
             "capture each (workload, variant, scale,\n"
             "seed, interval) once, fan every config out\n"
             "over the shared set, and resume from\n"
             "per-interval cache partials"),
        util::value<std::string>(
            {"--shard"}, nullptr, "<k/n>",
            "with --campaign: measure only slice k of n\n"
            "of every sampled point's intervals and store\n"
            "them as cache partials (no --out/--csv); a\n"
            "later unsliced --campaign run resumes from\n"
            "them and writes the artifact",
            0,
            [&o](const std::string &v) {
                return parseShard(v, o.shardIndex, o.shardCount)
                    ? std::string()
                    : "bad --shard value (expected K/N with "
                      "1 <= K <= N, e.g. 1/2)";
            }),
        flag({"--quiet"}, &o.quiet, "suppress per-point progress on stderr"),
        flag({"--progress"}, &o.progress,
             "~1 Hz heartbeat line on stderr (points\n"
             "done/total + cost-model ETA; composes with\n"
             "--quiet to get only the heartbeat)"),
        flag({"--log-timestamps"}, &o.logTimestamps,
             "prefix every progress/warning line with a\n"
             "UTC ISO-8601 timestamp and severity"),
        util::section("Pareto:"),
        flag({"--pareto"}, &o.pareto,
             "error-vs-MIPS sweep over the sample grid\n"
             "(sampled vs detailed reference; table to\n"
             "stdout, --csv for the artifact)"),
        util::value({"--repeats"}, &o.repeats, "<n>",
                    "--pareto: wall-time repeats per point", 1),
        util::section("Maintenance and reports:"),
        flag({"--gc"}, &o.gc, "prune cache entries from other code versions"),
        flag({"--all"}, &o.gcAll, "with --gc: prune the entire cache"),
        util::value({"--grace"}, &o.gcGrace, "<seconds>",
                    "--gc: spare anything modified this recently\n"
                    "(default 300; 0 prunes unconditionally)"),
        util::value({"--report"}, &o.report, "<name>",
                    "render a fig/table report through the\n"
                    "cached engine (identical output to pbs_sim)"),
        flag({"--list"}, &o.list, "list workloads, predictors, reports"),
        util::helpOption(&o.help),
        util::section("Observability (docs/observability.md):"),
    };
    for (util::Option &row : driver::obsOptions(o.obs))
        rows.push_back(std::move(row));
    return rows;
}

std::string
usageText()
{
    CliOptions o;
    return util::renderHelp(
        "usage: pbs_exp --spec <file> [axis flags] [output flags]\n"
        "       pbs_exp --workloads <w1,w2,...> [axis flags] [output flags]\n"
        "       pbs_exp --pareto --workloads <list> [axis flags] [--csv F]\n"
        "       pbs_exp --campaign --shard <k/n> --spec <file> [axis flags]\n"
        "       pbs_exp --report <name> [--div N]\n"
        "       pbs_exp --gc [--all] [--grace <seconds>]\n"
        "       pbs_exp --list\n",
        cliOptions(o));
}

std::string
parseCli(const std::vector<std::string> &args, CliOptions &o)
{
    const std::string err = util::parseOptions(cliOptions(o), args);
    if (!err.empty())
        return err;

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
