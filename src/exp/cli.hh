/**
 * @file
 * Command-line options of the `pbs_exp` experiment-engine CLI: the
 * sweep axes (applied over an optional spec file), the execution and
 * output flags, campaign slices, and the shared observability flags.
 */

#ifndef PBS_EXP_CLI_HH
#define PBS_EXP_CLI_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/frontend.hh"
#include "exp/cache.hh"
#include "util/cli.hh"

namespace pbs::exp {

/** Everything `pbs_exp` can be told to do. */
struct CliOptions
{
    std::string specFile;
    /** Axis flags in command-line order, applied over the spec file. */
    std::vector<std::pair<std::string, std::string>> axes;

    std::string out;
    std::string csv;
    std::string report;
    unsigned divisor = 1;
    unsigned jobs = 1;
    std::string cacheDir = kDefaultCacheDir;
    bool noCache = false;
    bool campaign = false;
    unsigned shardIndex = 0;              ///< --shard K/N (1-based K)
    unsigned shardCount = 0;              ///< 0 = unsliced
    bool gc = false;
    bool gcAll = false;
    uint64_t gcGrace = kDefaultGcGraceSeconds;
    bool quiet = false;
    bool list = false;
    bool help = false;

    bool pareto = false;
    unsigned repeats = 1;                 ///< --pareto timing repeats

    driver::ObsFlags obs;                 ///< observability artifacts
    bool progress = false;                ///< heartbeat done/total + ETA
    bool logTimestamps = false;           ///< timestamp every sink line
};

/**
 * Parse `pbs_exp` arguments (argv[0] excluded) into @p o. Axis values
 * are validated eagerly, so a bad flag fails before any work.
 * @return the empty string on success, else the error message.
 */
std::string parseCli(const std::vector<std::string> &args, CliOptions &o);

/** The option table parseCli() parses into @p o (and --help renders). */
std::vector<util::Option> cliOptions(CliOptions &o);

/** The full usage text. */
std::string usageText();

}  // namespace pbs::exp

#endif  // PBS_EXP_CLI_HH
