// Tiny declarative CLI flag parser for bench/example binaries.
//
// Flags are `--name value` or `--name=value`; booleans also accept the bare
// form `--name`. Unknown flags are an error so typos in sweep scripts fail
// loudly instead of silently running the default configuration.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace middlefl::util {

class CliParser {
 public:
  explicit CliParser(std::string program_description)
      : description_(std::move(program_description)) {}

  /// Registers a flag bound to `target`; the current value of `target` is
  /// shown as the default in help text. Numeric values must be one whole
  /// in-range token; double flags also reject nan and inf.
  void add_flag(std::string name, std::string help, int* target);
  void add_flag(std::string name, std::string help, std::size_t* target);
  void add_flag(std::string name, std::string help, double* target);
  void add_flag(std::string name, std::string help, bool* target);
  void add_flag(std::string name, std::string help, std::string* target);

  /// Parses argv. Returns false (after printing help) when --help was given;
  /// throws std::invalid_argument on malformed input or unknown flags.
  bool parse(int argc, const char* const* argv);

  /// Renders the help text.
  std::string help_text() const;

  /// True when `name` appeared on the parsed command line — the hook
  /// override layers (e.g. --scenario plus explicit flags) use to tell
  /// "explicitly set" from "still the default".
  bool was_set(std::string_view name) const;

 private:
  struct Flag {
    std::string help;
    std::string default_value;
    bool is_bool = false;
    bool seen = false;
    std::function<void(std::string_view)> set;
  };

  void add_impl(std::string name, std::string help, std::string default_value,
                bool is_bool, std::function<void(std::string_view)> set);

  std::string description_;
  std::map<std::string, Flag, std::less<>> flags_;
  std::vector<std::string> order_;  // help prints flags in declaration order
};

}  // namespace middlefl::util
