// Small string utilities used by loaders and report printers.

#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace cgraph {

// Splits `text` on any of the bytes in `delims`, dropping empty pieces.
std::vector<std::string_view> SplitNonEmpty(std::string_view text, std::string_view delims);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// Parses a non-negative integer; returns false on any non-digit or overflow.
bool ParseUint64(std::string_view text, uint64_t* out);

// Parses a double via strtod semantics; returns false if the full token is not consumed
// or the value is not finite (nan, inf, or out of double range).
bool ParseDouble(std::string_view text, double* out);

// Formats `bytes` with binary-unit suffixes, e.g. "1.50 MiB".
std::string HumanBytes(uint64_t bytes);

// Formats a double with `digits` fractional digits.
std::string FormatDouble(double value, int digits);

}  // namespace cgraph

#endif  // SRC_COMMON_STRINGS_H_
