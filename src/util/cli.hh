/**
 * @file
 * The option table every CLI in the repository is declared on
 * (pbs_sim, pbs_exp, pbs_bench and pbs_prof). A binary lists its flags
 * as rows — spellings, value kind and range, destination, help line —
 * and one parse loop and one help renderer serve them all, so a flag
 * is spelled, validated and documented in one place, and "--key value",
 * "--key=value" and numbers are accepted and rejected the same way
 * everywhere.
 */

#ifndef PBS_UTIL_CLI_HH
#define PBS_UTIL_CLI_HH

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace pbs::util {

/**
 * Runs after a row's value is validated and stored; receives the raw
 * value ("" for a switch). @return an error message, or "".
 */
using OptionAction = std::function<std::string(const std::string &)>;

/**
 * One row of a command line's option table. The target's type is the
 * value kind: bool (a switch; takes no value), std::string, uint64_t,
 * unsigned (integers: no sign, no trailing junk, at least `min`),
 * or double (a finite fraction in [0, hi), or (0, hi) when zeroOpen).
 * A null target stores nothing and leaves the work to `then`. Rows
 * without spellings are section headings in the rendered help.
 */
struct Option
{
    std::vector<std::string> names;  ///< canonical spelling, then aliases
    std::variant<bool *, std::string *, uint64_t *, unsigned *, double *>
        target;
    std::string metavar;             ///< "<n>" in the help; "" for switches
    std::string help;                ///< '\n' starts a continuation line
    uint64_t min;                    ///< integer floor; string: min length
    OptionAction then;
    double hi;                       ///< fraction: upper bound (excluded)
    bool zeroOpen;                   ///< fraction: 0 excluded
};

/** A heading line in the rendered help. */
inline Option
section(std::string title)
{
    return {{}, static_cast<bool *>(nullptr), "", std::move(title), 0, {},
            0.0, false};
}

/** A switch: sets @p dst (when non-null), then runs @p then. */
inline Option
flag(std::vector<std::string> names, bool *dst, std::string help,
     OptionAction then = {})
{
    return {std::move(names), dst, "", std::move(help), 0, std::move(then),
            0.0, false};
}

/** A string or integer value, stored into @p dst (when non-null); at
 *  least @p min (a string: at least @p min characters long). */
template <class T>
Option
value(std::vector<std::string> names, T *dst, std::string metavar,
      std::string help, uint64_t min = 0, OptionAction then = {})
{
    return {std::move(names), dst, std::move(metavar), std::move(help), min,
            std::move(then), 0.0, false};
}

/** @name The rows several binaries share, each defined once here. */
/** @{ */
Option helpOption(bool *help);
Option jobsOption(unsigned *jobs);
Option divOption(unsigned *divisor, OptionAction then = {});
Option seedOption(uint64_t *seed, OptionAction then = {});
Option seedsOption(unsigned *seeds, OptionAction then = {});
Option sampleIntervalOption(uint64_t *interval, OptionAction then = {});
Option sampleWarmupOption(uint64_t *warmup, OptionAction then = {});
Option sampleMeasureOption(uint64_t *measure, OptionAction then = {});

/**
 * A regression gate as a fraction of a baseline, bounded below by 0
 * (excluded when @p zeroOpen) and above by @p hi (excluded).
 */
Option maxRegressOption(double *maxRegress, std::string help, double hi,
                        bool zeroOpen);
/** @} */

/** Receives an argument no row matched. @return an error, or "". */
using PositionalAction = std::function<std::string(const std::string &)>;

/**
 * Parse @p args (argv[0] excluded) against @p rows, left to right:
 * "--key value" and "--key=value" both work, a switch takes no value,
 * and each value is validated by its row's kind before it is stored.
 * An argument that matches no row goes to @p positional, or is an
 * unknown option when there is none.
 * @return the empty string on success, else the first error.
 */
std::string parseOptions(const std::vector<Option> &rows,
                         const std::vector<std::string> &args,
                         const PositionalAction &positional = {});

/** @p synopsis followed by one help line per row. */
std::string renderHelp(const std::string &synopsis,
                       const std::vector<Option> &rows);

/** Parse an unsigned 64-bit value: no sign, no trailing junk. */
bool parseU64Arg(const std::string &s, uint64_t &out);

}  // namespace pbs::util

#endif  // PBS_UTIL_CLI_HH
