/**
 * @file
 * Small string helpers used by the assembler, the scheme-name parser and
 * the report printers.
 */

#ifndef TLAT_UTIL_STRING_UTILS_HH
#define TLAT_UTIL_STRING_UTILS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tlat
{

/** Removes leading and trailing whitespace. */
std::string trim(const std::string &text);

/** Splits on @p delimiter; empty fields are preserved. */
std::vector<std::string> split(const std::string &text, char delimiter);

/**
 * Splits on @p delimiter at the top level only: delimiters nested inside
 * parentheses are not split points. Used for "AT(AHRT(512,12SR),...)".
 */
std::vector<std::string> splitTopLevel(const std::string &text,
                                       char delimiter);

/** Case-sensitive prefix test. */
bool startsWith(const std::string &text, const std::string &prefix);

/** Case-sensitive suffix test. */
bool endsWith(const std::string &text, const std::string &suffix);

/** ASCII upper-casing. */
std::string toUpper(const std::string &text);

/** ASCII lower-casing. */
std::string toLower(const std::string &text);

/**
 * Parses a non-negative integer, also accepting the "2^12" power
 * notation the paper's Table 2 uses. Returns nullopt on garbage and
 * on values above 2^64 - 1, which are rejected, never wrapped.
 */
std::optional<std::uint64_t> parseSize(const std::string &text);

/** Joins items with @p separator. */
std::string join(const std::vector<std::string> &items,
                 const std::string &separator);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace tlat

#endif // TLAT_UTIL_STRING_UTILS_HH
