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
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "prof/prof.hh"
#include "util/cli.hh"

namespace {

constexpr const char *kUsage = R"(pbs_prof — analyze pbs-trace-v1 / pbs-metrics-v1 run artifacts

usage:
  pbs_prof report --trace FILE [options]
  pbs_prof diff BASE.metrics.json CUR.metrics.json [options]
  pbs_prof --help

report options:
  --trace FILE      pbs-trace-v1 input (required)
  --metrics FILE    pbs-metrics-v1 snapshot to fold into the report
  --folded FILE     write flamegraph folded stacks (frame;frame N) here
  --top N           rows shown in the phase table / critical path (default 12)

diff options:
  --max-regress F   exit 1 when any phase regressed more than fraction F
                    (>= 1 ms of base time and delta; new phases exempt)
  --fail-on-drift   exit 1 when deterministic counters/gauges differ
                    (the two runs did different work — correctness drift)

report prints per-phase self-vs-child time, per-worker utilization
timelines, and the critical path; diff prints correctness drift first,
then per-phase wall-time deltas ranked by |delta|.
)";

int
usageError(const char *msg)
{
    std::fprintf(stderr, "pbs_prof: %s\n%s", msg, kUsage);
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
runReport(int argc, char **argv)
{
    std::string traceFile, metricsFile, foldedFile, v;
    unsigned top = 12;
    const std::vector<std::string> args(argv + 2, argv + argc);
    for (size_t i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        int m;
        if ((m = pbs::util::takeOptionValue(args, i, "--trace", v)) != 0) {
            if (m < 0 || v.empty())
                return usageError("--trace needs a file");
            traceFile = v;
        } else if ((m = pbs::util::takeOptionValue(args, i, "--metrics",
                                                   v)) != 0) {
            if (m < 0 || v.empty())
                return usageError("--metrics needs a file");
            metricsFile = v;
        } else if ((m = pbs::util::takeOptionValue(args, i, "--folded",
                                                   v)) != 0) {
            if (m < 0 || v.empty())
                return usageError("--folded needs a file");
            foldedFile = v;
        } else if ((m = pbs::util::takeOptionValue(args, i, "--top",
                                                   v)) != 0) {
            if (m < 0 || v.empty())
                return usageError("--top needs a count");
            top = unsigned(std::strtoul(v.c_str(), nullptr, 10));
            if (top == 0)
                return usageError("--top must be >= 1");
        } else {
            return usageError(("unknown report option: " + arg).c_str());
        }
    }
    if (traceFile.empty())
        return usageError("report requires --trace FILE");

    std::string traceText;
    if (!readFile(traceFile, traceText)) {
        std::fprintf(stderr, "pbs_prof: cannot read %s\n",
                     traceFile.c_str());
        return 1;
    }
    std::string metricsText;
    if (!metricsFile.empty() && !readFile(metricsFile, metricsText)) {
        std::fprintf(stderr, "pbs_prof: cannot read %s\n",
                     metricsFile.c_str());
        return 1;
    }

    pbs::prof::Trace trace = pbs::prof::parseTrace(traceText);
    std::string report = pbs::prof::reportText(trace, metricsText, top);
    std::fwrite(report.data(), 1, report.size(), stdout);

    if (!foldedFile.empty()) {
        std::string folded = pbs::prof::foldedStacks(trace);
        if (!writeFile(foldedFile, folded)) {
            std::fprintf(stderr, "pbs_prof: cannot write %s\n",
                         foldedFile.c_str());
            return 1;
        }
        std::fprintf(stderr, "pbs_prof: wrote %zu folded stack(s) to %s\n",
                     size_t(std::count(folded.begin(), folded.end(), '\n')),
                     foldedFile.c_str());
    }
    return 0;
}

int
runDiff(int argc, char **argv)
{
    std::string baseFile, curFile, v;
    double maxRegress = -1;
    bool failOnDrift = false;
    const std::vector<std::string> args(argv + 2, argv + argc);
    for (size_t i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        int m;
        if ((m = pbs::util::takeOptionValue(args, i, "--max-regress",
                                            v)) != 0) {
            if (m < 0 || v.empty())
                return usageError("--max-regress needs a fraction");
            maxRegress = std::strtod(v.c_str(), nullptr);
            if (maxRegress <= 0)
                return usageError("--max-regress must be > 0");
        } else if (arg == "--fail-on-drift") {
            failOnDrift = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usageError(("unknown diff option: " + arg).c_str());
        } else if (baseFile.empty()) {
            baseFile = arg;
        } else if (curFile.empty()) {
            curFile = arg;
        } else {
            return usageError("diff takes exactly two metrics files");
        }
    }
    if (baseFile.empty() || curFile.empty())
        return usageError("diff requires BASE and CUR metrics files");

    std::string baseText, curText;
    if (!readFile(baseFile, baseText)) {
        std::fprintf(stderr, "pbs_prof: cannot read %s\n", baseFile.c_str());
        return 1;
    }
    if (!readFile(curFile, curText)) {
        std::fprintf(stderr, "pbs_prof: cannot read %s\n", curFile.c_str());
        return 1;
    }

    double threshold = maxRegress > 0 ? maxRegress : 0.2;
    pbs::prof::MetricsDiff d = pbs::prof::diffMetrics(baseText, curText);
    std::string text = pbs::prof::diffText(d, baseFile, curFile, threshold);
    std::fwrite(text.data(), 1, text.size(), stdout);

    int rc = 0;
    if (failOnDrift && !d.deterministic.empty()) {
        std::fprintf(stderr,
                     "pbs_prof: correctness drift — %zu deterministic "
                     "delta(s), first: %s\n",
                     d.deterministic.size(),
                     d.deterministic.front().name.c_str());
        rc = 1;
    }
    if (maxRegress > 0) {
        unsigned n = pbs::prof::regressionCount(d, maxRegress);
        if (n > 0) {
            // phases[] is ranked by |delta|, so the first gated entry
            // is the phase that moved the run the most.
            for (const pbs::prof::PhaseDelta &p : d.phases) {
                if (p.baseNs >= 1000000 && p.deltaNs >= 1000000 &&
                    p.pct > maxRegress) {
                    std::fprintf(stderr,
                                 "pbs_prof: %u phase(s) regressed beyond "
                                 "%.0f%%, worst: %s (%+.1f%%, %+.3f ms)\n",
                                 n, 100.0 * maxRegress, p.phase.c_str(),
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
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::fputs(kUsage, stdout);
            return 0;
        }
    }
    if (argc < 2)
        return usageError("missing subcommand");

    std::string cmd = argv[1];
    try {
        if (cmd == "report")
            return runReport(argc, argv);
        if (cmd == "diff")
            return runDiff(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pbs_prof: %s\n", e.what());
        return 1;
    }
    return usageError(("unknown subcommand: " + cmd).c_str());
}
