/**
 * @file
 * Shared strict CLI number parsing. Every user-facing count flag in the
 * tree (--threads on fuse_bench and fuse_sweep, --repeat on fuse_bench)
 * parses through parseCount so the rejection behaviour is identical
 * everywhere: the whole string must be a decimal integer inside the
 * stated bounds, and zero, negatives, fractions and garbage are fatal
 * user errors rather than silent clamps (strtoul alone happily wraps
 * "-1" into a huge count).
 */

#ifndef FUSE_COMMON_CLI_HH
#define FUSE_COMMON_CLI_HH

namespace fuse
{

/**
 * Parse @p value as a decimal integer in [@p lo, @p hi]; fatal with a
 * message naming @p flag on anything else (empty string, non-digits,
 * out-of-range, overflow). The historical thread-flag bounds [1, 4096]
 * are the default so existing call sites keep their contract.
 */
unsigned parseCount(const char *flag, const char *value, unsigned lo = 1,
                    unsigned hi = 4096);

} // namespace fuse

#endif // FUSE_COMMON_CLI_HH
