#include "src/common/flags.h"

#include <algorithm>

#include "src/common/check.h"

namespace cgraph {
namespace {

constexpr size_t kHelpColumn = 24;
constexpr size_t kHelpWidth = 88;

}  // namespace

void FlagSet::Section(std::string title, std::string requirement) {
  flags_.push_back(Flag{"", "", std::move(title), {}, {}, "", false});
  requirement_ = std::move(requirement);
}

void FlagSet::Switch(std::string name, std::string help, bool* field, bool set_to) {
  Custom(
      std::move(name), "", std::move(help),
      [field, set_to](std::string_view) {
        *field = set_to;
        return Status::Ok();
      },
      [field, set_to] { return std::string(*field == set_to ? "on" : "off"); });
}

void FlagSet::String(std::string name, std::string hint, std::string help,
                     std::string* field) {
  Custom(
      std::move(name), std::move(hint), std::move(help),
      [field](std::string_view text) {
        *field = text;
        return Status::Ok();
      },
      [field] { return *field; });
}

void FlagSet::Custom(std::string name, std::string hint, std::string help,
                     std::function<Status(std::string_view)> parse,
                     std::function<std::string()> show) {
  const auto same_name = [&name](const Flag& f) { return f.name == name; };
  CGRAPH_CHECK(!name.empty() && std::none_of(flags_.begin(), flags_.end(), same_name));
  flags_.push_back(Flag{std::move(name), std::move(hint), std::move(help), std::move(parse),
                        std::move(show), requirement_, false});
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    // Once arg starts with "--", eq is npos or >= 2, so eq - 2 spans the name.
    const size_t eq = arg.find('=');
    const auto flag = std::find_if(flags_.begin(), flags_.end(), [&](const Flag& f) {
      return arg.starts_with("--") && !f.name.empty() && f.name == arg.substr(2, eq - 2);
    });
    if (flag == flags_.end()) {
      return Status::InvalidArgument("unknown argument '" + std::string(arg) +
                                     "' (try --help)");
    }
    const bool is_switch = flag->hint.empty();
    if (is_switch != (eq == std::string_view::npos)) {
      return Status::InvalidArgument("--" + flag->name +
                                     (is_switch ? " takes no value"
                                                : " expects a value: --" + flag->name +
                                                      "=" + flag->hint));
    }
    Status status = flag->parse(is_switch ? std::string_view() : arg.substr(eq + 1));
    if (!status.ok()) {
      return status;
    }
    flag->seen = true;
  }
  return Status::Ok();
}

bool FlagSet::Seen(std::string_view name) const {
  return std::any_of(flags_.begin(), flags_.end(),
                     [name](const Flag& f) { return f.seen && f.name == name; });
}

Status FlagSet::CheckRequirement(std::string_view requirement, bool met) const {
  for (const Flag& flag : flags_) {
    if (flag.seen && flag.requirement == requirement && !met) {
      return Status::InvalidArgument("--" + flag.name + " requires " + flag.requirement);
    }
  }
  return Status::Ok();
}

std::string FlagSet::Usage() const {
  std::string out = title_ + "\n";
  for (const Flag& flag : flags_) {
    if (flag.name.empty()) {
      out += "\n" + flag.help + ":\n";
      continue;
    }
    const std::string head =
        "  --" + flag.name + (flag.hint.empty() ? "" : "=" + flag.hint);
    out += head + (head.size() < kHelpColumn ? std::string(kHelpColumn - head.size(), ' ')
                                             : "\n" + std::string(kHelpColumn, ' '));
    const std::string value = flag.show();
    const std::string help =
        flag.help + " (default " + (value.empty() ? "none" : value) +
        (flag.requirement.empty() ? "" : "; requires " + flag.requirement) + ")";
    // Word-wrap at kHelpWidth, continuing under the help column.
    size_t column = kHelpColumn;
    for (const std::string_view word : SplitNonEmpty(help, " ")) {
      if (column > kHelpColumn) {
        const bool wrap = column + 1 + word.size() > kHelpWidth;
        out += wrap ? "\n" + std::string(kHelpColumn, ' ') : " ";
        column = wrap ? kHelpColumn : column + 1;
      }
      out += word;
      column += word.size();
    }
    out += "\n";
  }
  return out + "\n  -h, --help            print this help\n";
}

}  // namespace cgraph
