#include "util/cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pbs::util {

namespace {

/** The help column: spellings and metavar left, text from here on. */
constexpr size_t kHelpColumn = 23;

bool
takesValue(const Option &o)
{
    return !std::holds_alternative<bool *>(o.target);
}

/** Validate @p value by @p o's kind and store it. @return error or "". */
std::string
store(const Option &o, const std::string &flag, const std::string &value)
{
    const std::string bad = "bad " + flag + " value: '" + value + "'";
    if (auto *p = std::get_if<bool *>(&o.target)) {
        if (*p)
            **p = true;
    } else if (auto *p = std::get_if<std::string *>(&o.target)) {
        if (value.size() < o.min)
            return flag + " needs a non-empty value";
        if (*p)
            **p = value;
    } else if (auto *p = std::get_if<double *>(&o.target)) {
        // Finite and fully consumed: strtod alone takes "nan", "inf"
        // and "0.2x".
        char *end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (!std::isfinite(v) || end == value.c_str() || *end != '\0' ||
            v < 0.0 ||
            (o.zeroOpen && v == 0.0) || v >= o.hi) {
            char range[64];
            std::snprintf(range, sizeof(range), "%s0, %g)",
                          o.zeroOpen ? "(" : "[", o.hi);
            return bad + " (want a finite number in " + range + ")";
        }
        if (*p)
            **p = v;
    } else {
        uint64_t v = 0;
        auto *narrow = std::get_if<unsigned *>(&o.target);
        if (!parseU64Arg(value, v) || v < o.min ||
            (narrow && v > 0xffffffffull)) {
            return bad + " (want an unsigned integer" +
                   (o.min ? " >= " + std::to_string(o.min) : "") + ")";
        }
        if (narrow && *narrow)
            **narrow = static_cast<unsigned>(v);
        if (auto *wide = std::get_if<uint64_t *>(&o.target); wide && *wide)
            **wide = v;
    }
    return o.then ? o.then(value) : "";
}

}  // namespace

Option
helpOption(bool *help)
{
    return flag({"--help", "-h"}, help, "print this help and exit");
}

Option
jobsOption(unsigned *jobs)
{
    return value({"--jobs"}, jobs, "<n>",
                 "worker threads on the shared scheduler (default 1)", 1);
}

Option
divOption(unsigned *divisor, OptionAction then)
{
    return value({"--div"}, divisor, "<n>",
                 "divide each workload's default scale by n", 1,
                 std::move(then));
}

Option
seedOption(uint64_t *seed, OptionAction then)
{
    return value({"--seed"}, seed, "<n>", "first seed (default 12345)", 0,
                 std::move(then));
}

Option
seedsOption(unsigned *seeds, OptionAction then)
{
    return value({"--seeds"}, seeds, "<n>",
                 "consecutive seeds per configuration (default 1)", 1,
                 std::move(then));
}

Option
sampleIntervalOption(uint64_t *interval, OptionAction then)
{
    return value({"--sample-interval"}, interval, "<n>",
                 "sampled: insts between measurements (default 500000)", 1,
                 std::move(then));
}

Option
sampleWarmupOption(uint64_t *warmup, OptionAction then)
{
    return value({"--sample-warmup"}, warmup, "<n>",
                 "sampled: detailed warmup per sample (default 100000)", 0,
                 std::move(then));
}

Option
sampleMeasureOption(uint64_t *measure, OptionAction then)
{
    return value({"--sample-measure"}, measure, "<n>",
                 "sampled: measured insts per sample (default 60000)", 1,
                 std::move(then));
}

Option
maxRegressOption(double *maxRegress, std::string help, double hi,
                 bool zeroOpen)
{
    return {{"--max-regress"}, maxRegress, "<f>", std::move(help), 0, {},
            hi, zeroOpen};
}

std::string
parseOptions(const std::vector<Option> &rows,
             const std::vector<std::string> &args,
             const PositionalAction &positional)
{
    for (size_t i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        const Option *match = nullptr;
        std::string flag;
        for (const Option &o : rows) {
            for (const std::string &name : o.names) {
                if (!match && (arg == name || (takesValue(o) &&
                                               arg.rfind(name + "=", 0) == 0))) {
                    match = &o;
                    flag = name;
                }
            }
        }
        std::string err;
        if (!match)
            err = positional ? positional(arg) : "unknown option: " + arg;
        else if (arg.size() > flag.size())  // --key=value
            err = store(*match, flag, arg.substr(flag.size() + 1));
        else if (!takesValue(*match))
            err = store(*match, flag, "");
        else if (i + 1 < args.size())
            err = store(*match, flag, args[++i]);
        else
            err = flag + " needs a value";
        if (!err.empty())
            return err;
    }
    return "";
}

std::string
renderHelp(const std::string &synopsis, const std::vector<Option> &rows)
{
    std::string out = synopsis;
    for (const Option &o : rows) {
        if (o.names.empty()) {
            out += "\n" + o.help + "\n";
            continue;
        }
        std::string left = "  ";
        for (size_t n = 0; n < o.names.size(); n++)
            left += (n ? ", " : "") + o.names[n];
        if (!o.metavar.empty())
            left += " " + o.metavar;
        // A long left side puts the help on the next line.
        left += left.size() + 2 <= kHelpColumn
            ? std::string(kHelpColumn - left.size(), ' ')
            : "\n" + std::string(kHelpColumn, ' ');
        out += left;
        for (char c : o.help) {
            out += c;
            if (c == '\n')
                out += std::string(kHelpColumn, ' ');
        }
        out += "\n";
    }
    return out;
}

bool
parseU64Arg(const std::string &s, uint64_t &out)
{
    // A digit after any blanks: strtoull would wrap a "-1", even " -1".
    size_t at = 0;
    while (at < s.size() && std::isspace(static_cast<unsigned char>(s[at])))
        at++;
    if (at == s.size() || !std::isdigit(static_cast<unsigned char>(s[at])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno == ERANGE || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

}  // namespace pbs::util
