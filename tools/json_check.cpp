// json_check — strict validator for the observability output files.
//
// Validates that a file is well-formed JSON (default) or JSONL (--jsonl:
// every non-empty line is one JSON value), with optional structural
// checks used by CI and the smoke tests:
//
//   json_check --require-key traceEvents --nonempty-array traceEvents trace.json
//   json_check --require-key counters,gauges,histograms metrics.json
//   json_check --jsonl --require-key kind --min-records 10 run.jsonl
//
// --require-key demands the top-level value (every line in JSONL mode) be
// an object containing each comma-separated key; --nonempty-array demands
// the named top-level key hold an array with at least one element;
// --min-records demands at least N values (lines in JSONL mode, 1
// otherwise). Exit 0 on success, 1 with a diagnostic on stderr otherwise.
//
// Parsing is config::parse_json, the one strict parser of the tree (no
// trailing commas, no comments, no garbage after the value, no duplicate
// keys or leading zeros, at most 256 nested arrays/objects), so anything
// it accepts loads in Python/Perfetto. Parse errors carry line:column.
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/json.hpp"
#include "util/cli.hpp"

namespace {

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const auto comma = list.find(',', pos);
    const auto end = comma == std::string::npos ? list.size() : comma;
    if (end > pos) out.push_back(list.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// Parses one JSON document named `source` and applies the structural
/// checks to its top-level members; returns an error message prefixed by
/// `source`, or empty on success.
std::string check_document(std::string_view text, const std::string& source,
                           const std::vector<std::string>& required_keys,
                           const std::string& nonempty_array) {
  middlefl::config::Json doc;
  try {
    doc = middlefl::config::parse_json(text, source);
  } catch (const std::exception& error) {
    return error.what();
  }
  for (const std::string& key : required_keys) {
    if (doc.find(key) == nullptr) {
      return source + ": missing required top-level key \"" + key + "\"";
    }
  }
  if (!nonempty_array.empty()) {
    const middlefl::config::Json* array = doc.find(nonempty_array);
    if (array == nullptr) {
      return source + ": missing array key \"" + nonempty_array + "\"";
    }
    if (!array->is_array()) {
      return source + ": key \"" + nonempty_array + "\" is not an array";
    }
    if (array->items().empty()) {
      return source + ": array \"" + nonempty_array + "\" is empty";
    }
  }
  return {};
}

int run(int argc, const char* const* argv) {
  bool jsonl = false;
  std::string require_key;
  std::string nonempty_array;
  std::size_t min_records = 1;
  std::string file;
  middlefl::util::CliParser cli(
      "json_check: strict JSON/JSONL validator for observability outputs");
  cli.add_flag("jsonl", "treat the file as JSONL (one value per line)",
               &jsonl);
  cli.add_flag("require-key",
               "comma-separated top-level keys that must be present",
               &require_key);
  cli.add_flag("nonempty-array",
               "top-level key that must hold a non-empty array",
               &nonempty_array);
  cli.add_flag("min-records", "minimum number of JSON values (JSONL lines)",
               &min_records);
  cli.add_flag("file", "file to validate", &file);
  if (!cli.parse(argc, argv)) return 0;
  if (file.empty()) {
    std::cerr << "json_check: no input (use --file <path>)\n";
    return 1;
  }

  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::cerr << "json_check: cannot open " << file << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::vector<std::string> required = split_commas(require_key);

  std::size_t records = 0;
  if (jsonl) {
    std::istringstream lines(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(lines, line)) {
      ++line_no;
      if (line.empty()) continue;
      const std::string error =
          check_document(line, file + " line " + std::to_string(line_no),
                         required, nonempty_array);
      if (!error.empty()) {
        std::cerr << "json_check: " << error << "\n";
        return 1;
      }
      ++records;
    }
  } else {
    const std::string error =
        check_document(text, file, required, nonempty_array);
    if (!error.empty()) {
      std::cerr << "json_check: " << error << "\n";
      return 1;
    }
    records = 1;
  }
  if (records < min_records) {
    std::cerr << "json_check: " << file << ": " << records
              << " record(s), expected at least " << min_records << "\n";
    return 1;
  }
  std::cout << file << ": OK (" << records << " record"
            << (records == 1 ? "" : "s") << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "json_check: " << e.what() << "\n";
    return 1;
  }
}
