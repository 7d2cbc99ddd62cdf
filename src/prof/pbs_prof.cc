/**
 * @file
 * `pbs_prof` — the analysis CLI over finished-run artifacts. Two
 * subcommands: `report` profiles one run from its pbs-trace-v1 (and
 * optionally pbs-metrics-v1) files; `diff` attributes a regression
 * between two pbs-metrics-v1 snapshots. All logic lives in
 * src/prof/prof.{hh,cc}; this file is argument plumbing and I/O.
 *
 * Exit codes: 0 success; 1 gate tripped (--max-regress /
 * --fail-on-drift) or I/O / parse failure; 2 usage error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "prof/prof.hh"
#include "util/cli.hh"

namespace {

const char *const kSynopsis =
    "pbs_prof — analyze pbs-trace-v1 / pbs-metrics-v1 run artifacts\n"
    "\n"
    "usage:\n"
    "  pbs_prof report --trace FILE [options]\n"
    "  pbs_prof diff BASE.metrics.json CUR.metrics.json [options]\n"
    "  pbs_prof --help\n";

const char *const kEpilogue =
    "\nreport prints per-phase self-vs-child time, per-worker "
    "utilization\ntimelines, and the critical path; diff prints "
    "correctness drift first,\nthen per-phase wall-time deltas ranked "
    "by |delta|.\n";

/** Everything the two subcommands can be told. */
struct ProfArgs
{
    std::string traceFile, metricsFile, foldedFile;
    unsigned top = 12;
    double maxRegress = 0;  ///< 0 = no regression gate
    bool failOnDrift = false;
    bool help = false;
};

std::vector<pbs::util::Option>
reportOptions(ProfArgs &a)
{
    using pbs::util::value;  // file names: min length 1
    return {
        pbs::util::section("report options:"),
        value({"--trace"}, &a.traceFile, "FILE",
              "pbs-trace-v1 input (required)", 1),
        value({"--metrics"}, &a.metricsFile, "FILE",
              "pbs-metrics-v1 snapshot to fold into the report", 1),
        value({"--folded"}, &a.foldedFile, "FILE",
              "write flamegraph folded stacks (frame;frame N)", 1),
        value({"--top"}, &a.top, "N",
              "rows shown in the phase table / critical path\n"
              "(default 12)",
              1),
    };
}

std::vector<pbs::util::Option>
diffOptions(ProfArgs &a)
{
    return {
        pbs::util::section("diff options:"),
        pbs::util::maxRegressOption(
            &a.maxRegress,
            "exit 1 when any phase regressed more than\n"
            "fraction f > 0 (>= 1 ms of base time and\n"
            "delta; new phases exempt)",
            HUGE_VAL, true),
        pbs::util::flag({"--fail-on-drift"}, &a.failOnDrift,
                        "exit 1 when deterministic counters/gauges\n"
                        "differ (the two runs did different work:\n"
                        "correctness drift)"),
    };
}

std::string
usageText()
{
    ProfArgs a;
    std::vector<pbs::util::Option> rows = reportOptions(a);
    for (auto &row : diffOptions(a))
        rows.push_back(std::move(row));
    rows.push_back(pbs::util::section("common:"));
    rows.push_back(pbs::util::helpOption(&a.help));
    return pbs::util::renderHelp(kSynopsis, rows) + kEpilogue;
}

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "pbs_prof: %s\n%s", msg.c_str(),
                 usageText().c_str());
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = (n == text.size());
    if (std::fclose(f) != 0)
        ok = false;
    return ok;
}

int
runReport(const ProfArgs &a)
{
    if (a.traceFile.empty())
        return usageError("report requires --trace FILE");

    std::string traceText;
    if (!readFile(a.traceFile, traceText)) {
        std::fprintf(stderr, "pbs_prof: cannot read %s\n",
                     a.traceFile.c_str());
        return 1;
    }
    std::string metricsText;
    if (!a.metricsFile.empty() && !readFile(a.metricsFile, metricsText)) {
        std::fprintf(stderr, "pbs_prof: cannot read %s\n",
                     a.metricsFile.c_str());
        return 1;
    }

    pbs::prof::Trace trace = pbs::prof::parseTrace(traceText);
    std::string report = pbs::prof::reportText(trace, metricsText, a.top);
    std::fwrite(report.data(), 1, report.size(), stdout);

    if (!a.foldedFile.empty()) {
        std::string folded = pbs::prof::foldedStacks(trace);
        if (!writeFile(a.foldedFile, folded)) {
            std::fprintf(stderr, "pbs_prof: cannot write %s\n",
                         a.foldedFile.c_str());
            return 1;
        }
        std::fprintf(stderr, "pbs_prof: wrote %zu folded stack(s) to %s\n",
                     size_t(std::count(folded.begin(), folded.end(), '\n')),
                     a.foldedFile.c_str());
    }
    return 0;
}

int
runDiff(const ProfArgs &a, const std::string &baseFile,
        const std::string &curFile)
{
    std::string baseText, curText;
    if (!readFile(baseFile, baseText)) {
        std::fprintf(stderr, "pbs_prof: cannot read %s\n", baseFile.c_str());
        return 1;
    }
    if (!readFile(curFile, curText)) {
        std::fprintf(stderr, "pbs_prof: cannot read %s\n", curFile.c_str());
        return 1;
    }

    double threshold = a.maxRegress > 0 ? a.maxRegress : 0.2;
    pbs::prof::MetricsDiff d = pbs::prof::diffMetrics(baseText, curText);
    std::string text = pbs::prof::diffText(d, baseFile, curFile, threshold);
    std::fwrite(text.data(), 1, text.size(), stdout);

    int rc = 0;
    if (a.failOnDrift && !d.deterministic.empty()) {
        std::fprintf(stderr,
                     "pbs_prof: correctness drift — %zu deterministic "
                     "delta(s), first: %s\n",
                     d.deterministic.size(),
                     d.deterministic.front().name.c_str());
        rc = 1;
    }
    if (a.maxRegress > 0) {
        unsigned n = pbs::prof::regressionCount(d, a.maxRegress);
        if (n > 0) {
            // phases[] is ranked by |delta|, so the first gated entry
            // is the phase that moved the run the most.
            for (const pbs::prof::PhaseDelta &p : d.phases) {
                if (p.baseNs >= 1000000 && p.deltaNs >= 1000000 &&
                    p.pct > a.maxRegress) {
                    std::fprintf(stderr,
                                 "pbs_prof: %u phase(s) regressed beyond "
                                 "%.0f%%, worst: %s (%+.1f%%, %+.3f ms)\n",
                                 n, 100.0 * a.maxRegress, p.phase.c_str(),
                                 100.0 * p.pct, double(p.deltaNs) / 1e6);
                    break;
                }
            }
            rc = 1;
        }
    }
    return rc;
}

}  // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    const std::string cmd = args.empty() ? "" : args.front();
    ProfArgs a;
    std::vector<pbs::util::Option> rows;
    if (cmd == "report")
        rows = reportOptions(a);
    else if (cmd == "diff")
        rows = diffOptions(a);
    rows.push_back(pbs::util::helpOption(&a.help));

    std::vector<std::string> words;  // the subcommand, then diff's files
    const std::string err = pbs::util::parseOptions(
        rows, args, [&words](const std::string &arg) {
            if (!arg.empty() && arg[0] == '-')
                return "unknown option: " + arg;
            words.push_back(arg);
            return std::string();
        });
    if (!err.empty())
        return usageError(err);
    if (a.help) {
        std::fputs(usageText().c_str(), stdout);
        return 0;
    }
    if (words.empty())
        return usageError("missing subcommand");
    if (rows.size() == 1)
        return usageError("unknown subcommand: " + cmd);
    if (cmd == "report" && words.size() != 1)
        return usageError("report takes no file arguments: " + words[1]);
    if (cmd == "diff" && words.size() != 3)
        return usageError("diff takes exactly two metrics files");

    try {
        return cmd == "report" ? runReport(a)
                               : runDiff(a, words[1], words[2]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pbs_prof: %s\n", e.what());
        return 1;
    }
}
