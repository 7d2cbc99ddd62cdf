/**
 * @file
 * The option matcher and number parsers every CLI in the repository
 * shares (pbs_sim, pbs_exp, pbs_bench and pbs_prof), so "--key value",
 * "--key=value" and unsigned values are accepted and rejected the same
 * way everywhere.
 */

#ifndef PBS_UTIL_CLI_HH
#define PBS_UTIL_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pbs::util {

/**
 * Scan "--key value" / "--key=value" at position @p i of @p args.
 * @return 1 = matched (@p value filled; @p i advanced past a separate
 *         value argument), 0 = a different option, -1 = the key is
 *         present but missing its value.
 */
int takeOptionValue(const std::vector<std::string> &args, size_t &i,
                    const char *key, std::string &value);

/** Parse an unsigned 64-bit option value (rejects signs and junk). */
bool parseU64Arg(const std::string &s, uint64_t &out);

/** Parse an unsigned 32-bit option value. */
bool parseUnsignedArg(const std::string &s, unsigned &out);

}  // namespace pbs::util

#endif  // PBS_UTIL_CLI_HH
