// Owned JSON value type with a strict parser and a canonical writer — the
// substrate of the declarative scenario layer.
//
// The repo's observability exporters hand-roll their JSON through the
// escape/number helpers in obs/json.hpp; that is the right shape for
// write-only streams but the scenario layer needs the full round trip:
// parse a spec file with precise error locations, apply dotted-path
// overrides (sweep axes, --set flags), re-serialize canonically. So this
// header adds the missing half while reusing the same conventions:
//
//   - strict RFC-8259 subset (tools/json_check validates with this same
//     parser): no comments, no trailing commas, exact true/false/null
//     literals, duplicate object keys rejected, at most 256 nested
//     arrays/objects;
//   - every node remembers the line/column it was parsed from, so schema
//     errors ("unknown key", "expected number") point at the offending
//     spot in the file, not at a byte offset;
//   - objects preserve insertion order, and the writer emits members in
//     that order with shortest-round-trip number formatting — so
//     write(read(write(x))) == write(x) byte for byte (the fixpoint the
//     scenario tests pin);
//   - integers parsed without sign/fraction/exponent are kept as uint64
//     and re-emitted verbatim, so 64-bit seeds survive the round trip
//     beyond double's 2^53 integer range.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace middlefl::config {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, Json>;

  Json() = default;

  static Json make_null() { return Json(); }
  static Json make_bool(bool value);
  static Json make_number(double value);
  /// Non-negative integer, emitted without decimal point or exponent.
  static Json make_uint(std::uint64_t value);
  static Json make_string(std::string value);
  static Json make_array();
  static Json make_object();

  Type type() const noexcept { return type_; }
  bool is_object() const noexcept { return type_ == Type::kObject; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  /// True for numbers carrying an exact unsigned-integer representation.
  bool is_unsigned() const noexcept {
    return type_ == Type::kNumber && has_uint_;
  }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  std::uint64_t as_uint() const { return uint_; }
  const std::string& as_string() const { return string_; }

  std::vector<Json>& items() { return items_; }
  const std::vector<Json>& items() const { return items_; }
  std::vector<Member>& members() { return members_; }
  const std::vector<Member>& members() const { return members_; }

  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;
  Json* find(std::string_view key);

  /// Sets (replacing) or appends an object member, preserving order.
  Json& set(std::string key, Json value);
  /// Appends to an array.
  Json& push_back(Json value);

  /// 1-based source position of the token this node was parsed from
  /// (0 when the node was built programmatically).
  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }
  void set_position(int line, int column) noexcept {
    line_ = line;
    column_ = column;
  }

  /// Canonical serialization: 2-space indent per depth level when
  /// `indent` > 0, single-line compact form when `indent` == 0. Object
  /// members keep insertion order; numbers use the shortest decimal
  /// representation that round-trips.
  void write(std::ostream& out, int indent = 2, int depth = 0) const;
  std::string dump(int indent = 2) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::uint64_t uint_ = 0;
  bool has_uint_ = false;
  std::string string_;
  std::vector<Json> items_;
  std::vector<Member> members_;
  int line_ = 0;
  int column_ = 0;
};

/// "<source>:<line>:<col>" of `at`: the prefix of every positioned error.
std::string position_of(const std::string& source, const Json& at);

/// Shortest decimal form of `value` that parses back to the same double
/// (tries 15/16/17 significant digits). Non-finite values map to 0, as in
/// obs::json_number — a config file must never become unparseable.
std::string format_number(double value);

/// Parses one complete JSON document (trailing whitespace allowed, any
/// other trailing content rejected). Errors — including nesting deeper
/// than 256 arrays/objects — throw std::runtime_error with a
/// "<source>:<line>:<col>: message" prefix.
Json parse_json(std::string_view text, const std::string& source_name);

/// Reads and parses `path`; parse errors carry the path as the source
/// name. Throws std::runtime_error when the file cannot be read.
Json parse_json_file(const std::string& path);

/// Replaces the node at a dotted path ("sim.transport.wireless_up
/// .loss_prob") inside an object tree, creating intermediate objects and
/// missing leaves as needed — schema validation happens later at decode
/// time, where an invented key is rejected with its location. A created
/// object takes `value`'s position, so that location is the value's.
/// Throws std::runtime_error when a path segment lands on a non-object.
void set_by_path(Json& root, std::string_view dotted_path, Json value);

}  // namespace middlefl::config
