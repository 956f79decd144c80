// Tiny declarative CLI flag parser for bench/example binaries.
//
// Flags are `--name value` or `--name=value`; booleans also accept the bare
// form `--name`. Unknown flags and flags given twice are errors, so typos
// in sweep scripts fail loudly instead of silently running the default
// configuration or keeping only the last value.
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
  /// throws std::invalid_argument on malformed input, unknown flags or a
  /// flag given twice.
  bool parse(int argc, const char* const* argv);

  /// Renders the help text.
  std::string help_text() const;

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
