#include "util/atomic_file.hh"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>

namespace fs = std::filesystem;

namespace pbs::util {

namespace {

/** `<path>.<pid>.<n>.tmp`: no other writer, in this process or
 *  another, ever opens the same name. */
fs::path
uniqueTempPath(const fs::path &path)
{
    static std::atomic<uint64_t> counter{0};
    return path.string() + "." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1)) + ".tmp";
}

}  // namespace

bool
publishFileAtomic(const fs::path &path, const std::string &text)
{
    const fs::path tmp = uniqueTempPath(path);
    std::error_code ec;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << text;
        out.close();  // surface flush errors (e.g. disk full) in good()
        if (!out.good()) {
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

}  // namespace pbs::util
