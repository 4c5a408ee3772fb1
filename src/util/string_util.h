#ifndef PGM_UTIL_STRING_UTIL_H_
#define PGM_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pgm {

/// Splits `input` on `delimiter`; adjacent delimiters yield empty fields.
/// Splitting the empty string yields a single empty field.
std::vector<std::string> Split(std::string_view input, char delimiter);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// ASCII-only case conversion.
std::string ToUpper(std::string_view input);
std::string ToLower(std::string_view input);

/// Escapes `input` for use inside a JSON string literal: quote, backslash
/// and every control character. The one JSON string escaper of the metrics
/// and trace exports.
std::string EscapeJson(std::string_view input);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Strict integer / floating-point parsing: the whole (trimmed) string must
/// be consumed, otherwise InvalidArgument is returned.
StatusOr<std::int64_t> ParseInt64(std::string_view input);
StatusOr<double> ParseDouble(std::string_view input);

/// Formats `value` with thousands separators, e.g. 1234567 -> "1,234,567".
std::string WithThousandsSeparators(std::uint64_t value);

/// Human-oriented rendering of a possibly huge count: exact digits when the
/// value is small enough, scientific notation otherwise, "2^64-sat" for a
/// saturated counter.
std::string FormatCount(std::uint64_t value);

}  // namespace pgm

#endif  // PGM_UTIL_STRING_UTIL_H_
