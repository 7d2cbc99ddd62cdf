#include "util/cli.hh"

#include <cerrno>
#include <cstdlib>

namespace pbs::util {

int
takeOptionValue(const std::vector<std::string> &args, size_t &i,
                const char *key, std::string &value)
{
    const std::string &arg = args[i];
    const std::string prefix = std::string(key) + "=";
    if (arg.rfind(prefix, 0) == 0) {
        value = arg.substr(prefix.size());
        return 1;
    }
    if (arg != key)
        return 0;
    if (i + 1 >= args.size())
        return -1;
    value = args[++i];
    return 1;
}

bool
parseU64Arg(const std::string &s, uint64_t &out)
{
    // Reject signs ourselves: strtoull silently wraps "-1".
    if (s.empty() || s[0] == '-' || s[0] == '+')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno == ERANGE || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseUnsignedArg(const std::string &s, unsigned &out)
{
    uint64_t v;
    if (!parseU64Arg(s, v) || v > 0xffffffffull)
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

}  // namespace pbs::util
