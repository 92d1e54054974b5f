/**
 * @file
 * Strict CLI count parsing for fuse_sweep's --threads: the whole string
 * must be a decimal integer in [1, 4096], and zero, negatives, signs,
 * whitespace, fractions and garbage are fatal user errors rather than
 * silent clamps (strtoul alone happily wraps "-1" into a huge count).
 */

#ifndef FUSE_COMMON_CLI_HH
#define FUSE_COMMON_CLI_HH

namespace fuse
{

/**
 * Parse @p value as a decimal integer in [1, 4096]; fatal with a
 * message naming @p flag on anything else (empty string, non-digits,
 * out-of-range, overflow).
 */
unsigned parseCount(const char *flag, const char *value);

} // namespace fuse

#endif // FUSE_COMMON_CLI_HH
