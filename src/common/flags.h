// A registry of command-line flags. Each flag is one row binding its name, value hint
// and help text to the field it sets, with the values that field accepts: an inclusive
// numeric range, a list of names, or a custom parser. FlagSet parses argv into a Status
// whose message names the flag and what it accepts, prints --help with every default
// read from its bound field, and records which flags were seen, so a caller can reject
// flags given outside their scope (CheckRequirement). Rows may exclude each other
// (Excludes); Parse rejects such a pair.

#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <charconv>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/strings.h"

namespace cgraph {

class FlagSet {
 public:
  // `title` heads the --help text.
  explicit FlagSet(std::string title) : title_(std::move(title)) {}

  // Starts a --help group. Rows registered after it require `requirement` (e.g.
  // "--serve"; empty = none), which CheckRequirement enforces.
  void Section(std::string title, std::string requirement = "");

  // Rows; registering a name twice is a programming error (CHECK). A switch takes no
  // value and stores `set_to`.
  void Switch(std::string name, std::string help, bool* field, bool set_to = true);
  void String(std::string name, std::string hint, std::string help, std::string* field);
  // Accepts values in [lo, hi], or (lo, hi] with `lo_open`; never nan or inf.
  template <typename T>
  void Number(std::string name, std::string hint, std::string help, T* field,
              std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
              std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
              bool lo_open = false);
  // Accepts exactly the names `name_of(v)` of `values`.
  template <typename E, typename NameFn>
  void Enum(std::string name, std::string help, E* field, std::vector<E> values,
            NameFn name_of);
  // A comma-separated list of at least one element, each converted by `parse_one`.
  template <typename T>
  void List(std::string name, std::string hint, std::string help, std::vector<T>* field,
            std::function<Status(std::string_view, T*)> parse_one,
            std::function<std::string(const T&)> show_one);
  // `parse` sets the field from the text after '='; `show` renders its value for
  // --help. An empty `hint` makes the row a switch (`parse` then gets "").
  void Custom(std::string name, std::string hint, std::string help,
              std::function<Status(std::string_view)> parse,
              std::function<std::string()> show);
  // Tags row `name` as excluding row `other` (both registered): Parse rejects a command
  // line that gives both, and --help lists the exclusion on `name`.
  void Excludes(std::string_view name, std::string other);

  // Parses argv[1..argc): --help, -h, --switch or --name=value each. Stops at the first
  // error; a flag given twice keeps its last value. Then rejects excluded pairs.
  Status Parse(int argc, const char* const* argv);
  bool help_requested() const { return help_requested_; }
  bool Seen(std::string_view name) const;
  // A usage error naming the first seen row that requires `requirement`, unless `met`.
  Status CheckRequirement(std::string_view requirement, bool met) const;
  std::string Usage() const;

 private:
  struct Flag {
    std::string name;  // Empty for a section heading.
    std::string hint;
    std::string help;
    std::function<Status(std::string_view)> parse;
    std::function<std::string()> show;
    std::string requirement;
    bool seen = false;
    std::vector<std::string> excludes;  // Names of rows that may not be given with this.
  };

  std::string title_;
  std::string requirement_;  // Of the current section.
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

// Shortest round-trip text of an integer or floating-point value.
template <typename T>
std::string FormatNumber(T value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

template <typename T>
void FlagSet::Number(std::string name, std::string hint, std::string help, T* field,
                     std::type_identity_t<T> lo, std::type_identity_t<T> hi, bool lo_open) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const std::string range = hi == std::numeric_limits<T>::max()
                                ? (lo_open ? "> " : ">= ") + FormatNumber(lo)
                                : (lo_open ? "in (" : "in [") + FormatNumber(lo) + ", " +
                                      FormatNumber(hi) + "]";
  const std::string expects = "--" + name + " expects " +
                              (std::is_integral_v<T> ? "an integer " : "a number ") + range;
  auto parse = [field, lo, hi, lo_open, expects](std::string_view text) {
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    // The comparisons also reject nan and +-inf, since lo and hi are finite.
    if (ec != std::errc() || end != last || !(value >= lo && value <= hi) ||
        (lo_open && value == lo)) {
      return Status::InvalidArgument(expects + ", got '" + std::string(text) + "'");
    }
    *field = value;
    return Status::Ok();
  };
  Custom(std::move(name), std::move(hint), std::move(help), std::move(parse),
         [field] { return FormatNumber(*field); });
}

template <typename E, typename NameFn>
void FlagSet::Enum(std::string name, std::string help, E* field, std::vector<E> values,
                   NameFn name_of) {
  std::string expects = "--" + name + " expects one of ";
  for (size_t i = 0; i < values.size(); ++i) {
    expects += (i == 0 ? "" : ", ") + std::string(name_of(values[i]));
  }
  auto parse = [field, values = std::move(values), name_of,
                expects](std::string_view text) {
    for (const E& value : values) {
      if (text == name_of(value)) {
        *field = value;
        return Status::Ok();
      }
    }
    return Status::InvalidArgument(expects + ", got '" + std::string(text) + "'");
  };
  Custom(std::move(name), "NAME", std::move(help), std::move(parse),
         [field, name_of] { return std::string(name_of(*field)); });
}

template <typename T>
void FlagSet::List(std::string name, std::string hint, std::string help,
                   std::vector<T>* field,
                   std::function<Status(std::string_view, T*)> parse_one,
                   std::function<std::string(const T&)> show_one) {
  const std::string expects =
      "--" + name + " expects a non-empty list: --" + name + "=" + hint;
  auto parse = [field, parse_one = std::move(parse_one), expects](std::string_view text) {
    std::vector<T> values;
    for (const std::string_view piece : SplitNonEmpty(text, ",")) {
      Status status = parse_one(piece, &values.emplace_back());
      if (!status.ok()) {
        return status;
      }
    }
    if (values.empty()) {
      return Status::InvalidArgument(expects);
    }
    *field = std::move(values);
    return Status::Ok();
  };
  auto show = [field, show_one = std::move(show_one)] {
    std::string out;
    for (const T& value : *field) {
      out += out.empty() ? "" : ",";
      out += show_one(value);
    }
    return out;
  };
  Custom(std::move(name), std::move(hint), std::move(help), std::move(parse),
         std::move(show));
}

}  // namespace cgraph

#endif  // SRC_COMMON_FLAGS_H_
