#include "src/common/strings.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cgraph {

std::vector<std::string_view> SplitNonEmpty(std::string_view text, std::string_view delims) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    const bool at_delim = i < text.size() && delims.find(text[i]) != std::string_view::npos;
    if (i == text.size() || at_delim) {
      if (i > start) {
        pieces.push_back(text.substr(start, i - start));
      }
      start = i + 1;
    }
  }
  return pieces;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return false;  // Overflow.
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty() || text.size() >= 64) {
    return false;
  }
  char buf[64];
  std::memcpy(buf, text.data(), text.size());
  buf[text.size()] = '\0';
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + text.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

std::string HumanBytes(uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < sizeof(kUnits) / sizeof(kUnits[0])) {
    value /= 1024.0;
    ++unit;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f %s", value, kUnits[unit]);
  return buf;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace cgraph
