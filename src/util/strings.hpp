/**
 * @file
 * Small string helpers shared by the spec/schedule parsers, the
 * checked formatting primitive the R3 lint rule points at, and the
 * one strict numeric parse layer every number from outside the
 * program goes through (lint rule R9 keeps raw strto*, ato* and sto*
 * calls out of the rest of src/).
 */

#ifndef FASTCAP_UTIL_STRINGS_HPP
#define FASTCAP_UTIL_STRINGS_HPP

#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

#include "util/logging.hpp"

namespace fastcap {

/**
 * snprintf that enforces the format contract (lint rule R3): panics
 * on encoding errors and on truncation. For fixed-size buffers whose
 * formats are bounded by construction — silent truncation here is the
 * bug class that once merged distinct peak-power cache keys and
 * corrupted paired-seed sweeps, so it is a panic, never a best-effort
 * result.
 *
 * @return number of characters written (excluding the terminator).
 */
__attribute__((format(printf, 3, 4))) inline int
checkedSnprintf(char *buf, std::size_t size, const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(buf, size, fmt, args);
    va_end(args);
    if (n < 0)
        panic("checkedSnprintf: encoding error for format '%s'", fmt);
    if (static_cast<std::size_t>(n) >= size)
        panic("checkedSnprintf: '%s' needs %d bytes, buffer has %zu",
              fmt, n + 1, size);
    return n;
}

/** Copy of `s` without leading/trailing spaces, tabs or CRs. */
inline std::string
trimmed(const std::string &s)
{
    const auto a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return std::string();
    const auto b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

/**
 * Strict full-string double parse into `out`. False on empty input,
 * trailing junk, or non-finite values — schedule times and budget
 * fractions must never be nan/inf (nan would defeat ordering checks
 * and make binary searches over segments unspecified).
 */
inline bool
parseDouble(const std::string &s, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end == s.c_str() || *end != '\0' ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

/**
 * Strict full-string integer parse into `out`: decimal, or hex after
 * a `0x`/`0X` prefix, never octal ("010" is ten). False on empty
 * input, a missing digit, trailing junk, a value outside T's range,
 * and a `-` sign when T is unsigned, where a cast would wrap -1 to
 * the type's maximum. Like parseDouble (strtod), it skips leading
 * whitespace and takes an optional sign.
 */
template <class T>
bool
parseInt(const std::string &s, T &out)
{
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                      sizeof(T) <= sizeof(std::uint64_t),
                  "parseInt needs an integer type of at most 64 bits");
    std::size_t i = s.find_first_not_of(" \t\n\v\f\r");
    if (i == std::string::npos)
        return false;
    const bool negative = s[i] == '-';
    if (negative && std::is_unsigned_v<T>)
        return false;
    if (negative || s[i] == '+')
        ++i;
    unsigned base = 10;
    if (s.size() - i > 2 && s[i] == '0' &&
        (s[i + 1] == 'x' || s[i + 1] == 'X')) {
        base = 16;
        i += 2;
    }
    if (i == s.size())
        return false;

    // Largest magnitude T holds with this sign: |min| is max + 1.
    const std::uint64_t limit =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max()) +
        (negative ? 1 : 0);
    std::uint64_t magnitude = 0;
    for (; i < s.size(); ++i) {
        const char c = s[i];
        unsigned digit = base;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<unsigned>(c - 'A' + 10);
        if (digit >= base || magnitude > (limit - digit) / base)
            return false;
        magnitude = magnitude * base + digit;
    }
    if constexpr (std::is_signed_v<T>) {
        if (negative && magnitude != 0) {
            // -(m - 1) - 1 reaches min without overflowing int64.
            out = static_cast<T>(
                -static_cast<std::int64_t>(magnitude - 1) - 1);
            return true;
        }
    }
    out = static_cast<T>(magnitude);
    return true;
}

/** parseDouble for a double, parseInt for an integer type. */
template <class T>
bool
parseNumber(const std::string &s, T &out)
{
    if constexpr (std::is_same_v<T, double>)
        return parseDouble(s, out);
    else
        return parseInt(s, out);
}

/**
 * parseNumber() or fatal() in the shape the spec parsers share:
 * "<owner>: bad <what> '<s>' in '<context>'".
 */
template <class T>
T
parseOrFatal(const std::string &s, const char *owner, const char *what,
             const std::string &context)
{
    T v{};
    if (!parseNumber(s, v))
        fatal("%s: bad %s '%s' in '%s'", owner, what, s.c_str(),
              context.c_str());
    return v;
}

} // namespace fastcap

#endif // FASTCAP_UTIL_STRINGS_HPP
