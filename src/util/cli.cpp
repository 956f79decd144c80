#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace middlefl::util {
namespace {

[[noreturn]] void bad_value(std::string_view name, std::string_view value) {
  throw std::invalid_argument("invalid value '" + std::string(value) +
                              "' for --" + std::string(name));
}

/// The whole token as one T (integral or floating point); out-of-range
/// values and trailing characters are bad values.
template <typename T>
T parse_whole(std::string_view name, std::string_view value) {
  T out{};
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    bad_value(name, value);
  }
  return out;
}

bool parse_bool(std::string_view name, std::string_view value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  bad_value(name, value);
}

}  // namespace

void CliParser::add_impl(std::string name, std::string help,
                         std::string default_value, bool is_bool,
                         std::function<void(std::string_view)> set) {
  Flag flag{std::move(help), std::move(default_value), is_bool, false,
            std::move(set)};
  if (!flags_.emplace(name, std::move(flag)).second) {
    throw std::logic_error("duplicate flag --" + name);
  }
  order_.push_back(std::move(name));
}

void CliParser::add_flag(std::string name, std::string help, int* target) {
  add_impl(std::move(name), std::move(help), std::to_string(*target), false,
           [target](std::string_view v) {
             *target = parse_whole<int>("", v);
           });
}

void CliParser::add_flag(std::string name, std::string help,
                         std::size_t* target) {
  add_impl(std::move(name), std::move(help), std::to_string(*target), false,
           [target](std::string_view v) {
             *target = parse_whole<std::size_t>("", v);
           });
}

void CliParser::add_flag(std::string name, std::string help, double* target) {
  std::ostringstream def;
  def << *target;
  add_impl(std::move(name), std::move(help), def.str(), false,
           [target](std::string_view v) {
             const double parsed = parse_whole<double>("", v);
             if (!std::isfinite(parsed)) bad_value("", v);  // nan, inf
             *target = parsed;
           });
}

void CliParser::add_flag(std::string name, std::string help, bool* target) {
  add_impl(std::move(name), std::move(help), *target ? "true" : "false", true,
           [target](std::string_view v) { *target = parse_bool("", v); });
}

void CliParser::add_flag(std::string name, std::string help,
                         std::string* target) {
  add_impl(std::move(name), std::move(help), *target, false,
           [target](std::string_view v) { *target = std::string(v); });
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help_text();
      return false;
    }
    if (!arg.starts_with("--")) {
      throw std::invalid_argument("unexpected positional argument '" +
                                  std::string(arg) + "'");
    }
    arg.remove_prefix(2);
    std::string_view name = arg;
    std::optional<std::string_view> value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw std::invalid_argument("unknown flag --" + std::string(name));
    }
    Flag& flag = it->second;
    if (flag.seen) {
      throw std::invalid_argument("flag --" + std::string(name) +
                                  " given twice");
    }
    if (!value) {
      // Bare booleans mean "true"; other types consume the next argv slot.
      if (flag.is_bool &&
          (i + 1 >= argc || std::string_view(argv[i + 1]).starts_with("--"))) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::invalid_argument("flag --" + std::string(name) +
                                    " requires a value");
      }
    }
    try {
      flag.set(*value);
      flag.seen = true;
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("invalid value '" + std::string(*value) +
                                  "' for --" + std::string(name));
    }
  }
  return true;
}

std::string CliParser::help_text() const {
  std::ostringstream out;
  out << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    out << "  --" << name << "  " << flag.help << " (default: "
        << (flag.default_value.empty() ? "\"\"" : flag.default_value)
        << ")\n";
  }
  out << "  --help  show this message\n";
  return out.str();
}

}  // namespace middlefl::util
