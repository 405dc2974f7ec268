#ifndef INCOGNITO_COMMON_STRINGS_H_
#define INCOGNITO_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace incognito {

/// Joins the elements of `parts` with `sep` between them.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on the single character `sep`. Empty fields are preserved;
/// an empty input yields a single empty field.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a signed 64-bit integer; returns false on malformed input or
/// trailing garbage.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a double; returns false on malformed input, trailing garbage,
/// overflow, or underflow to zero (a subnormal result is accepted).
bool ParseDouble(std::string_view s, double* out);

}  // namespace incognito

#endif  // INCOGNITO_COMMON_STRINGS_H_
