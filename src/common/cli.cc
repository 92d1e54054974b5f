#include "common/cli.hh"

#include <cerrno>
#include <cstdlib>

#include "common/log.hh"

namespace fuse
{

unsigned
parseCount(const char *flag, const char *value)
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
    if (errno != 0 || end == value || *end != '\0' || n < 1 || n > 4096)
        fuse_fatal("%s expects an integer in [1, 4096], got '%s'", flag,
                   value);
    return static_cast<unsigned>(n);
}

} // namespace fuse
