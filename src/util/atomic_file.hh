/**
 * @file
 * Atomic file publication for the on-disk stores (the experiment cache
 * and the checkpoint-store manifest): write a temp file beside the
 * target, then rename it into place, so a reader sees either the old
 * file or the complete new one.
 *
 * Temp names are unique per process and per call
 * (`<path>.<pid>.<n>.tmp`). With one shared name per key, a second
 * writer opening the temp with O_TRUNC could truncate an inode the
 * first writer had already renamed into place. `pbs_exp --gc` sweeps
 * temps a killed writer left behind once they are older than its grace
 * window.
 */

#ifndef PBS_UTIL_ATOMIC_FILE_HH
#define PBS_UTIL_ATOMIC_FILE_HH

#include <filesystem>
#include <string>

namespace pbs::util {

/**
 * Write @p text to a temp beside @p path that is unique to this process
 * and call, and rename it over @p path. @return false on any I/O error;
 * the temp is removed then.
 */
bool publishFileAtomic(const std::filesystem::path &path,
                       const std::string &text);

}  // namespace pbs::util

#endif  // PBS_UTIL_ATOMIC_FILE_HH
