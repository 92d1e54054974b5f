#include "common/cli.hh"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <string>

#include "common/log.hh"

namespace fuse
{

unsigned
parseCount(const char *flag, const char *value, unsigned lo, unsigned hi)
{
    if (!value || *value == '\0')
        fuse_fatal("%s expects a positive integer", flag);
    for (const char *p = value; *p; ++p) {
        if (*p < '0' || *p > '9')
            fuse_fatal("%s expects a positive integer, got '%s'", flag,
                       value);
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long n = std::strtoul(value, &end, 10);
    if (errno != 0 || end == value || *end != '\0' || n < lo || n > hi)
        fuse_fatal("%s expects an integer in [%u, %u], got '%s'", flag,
                   lo, hi, value);
    return static_cast<unsigned>(n);
}

Shard
parseShard(const char *flag, const char *value)
{
    const std::string text = value ? value : "";
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos)
        fuse_fatal("%s wants I/N with 1 <= I <= N, got '%s'", flag,
                   text.c_str());
    const unsigned count =
        parseCount(flag, text.substr(slash + 1).c_str(), 1, UINT_MAX);
    const unsigned index =
        parseCount(flag, text.substr(0, slash).c_str(), 1, count);
    return {index - 1, count};
}

} // namespace fuse
