#include "config/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace middlefl::config {

Json Json::make_bool(bool value) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = value;
  return j;
}

Json Json::make_number(double value) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = value;
  return j;
}

Json Json::make_uint(std::uint64_t value) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = static_cast<double>(value);
  j.uint_ = value;
  j.has_uint_ = true;
  return j;
}

Json Json::make_string(std::string value) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::make_array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::make_object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Json* Json::find(std::string_view key) {
  for (auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Json& Json::set(std::string key, Json value) {
  if (Json* existing = find(key)) {
    *existing = std::move(value);
    return *existing;
  }
  members_.emplace_back(std::move(key), std::move(value));
  return members_.back().second;
}

Json& Json::push_back(Json value) {
  items_.push_back(std::move(value));
  return items_.back();
}

std::string position_of(const std::string& source, const Json& at) {
  return source + ":" + std::to_string(at.line()) + ":" +
         std::to_string(at.column());
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) return buf;
  }
  return buf;
}

namespace {

void write_string(std::ostream& out, const std::string& text) {
  out << '"' << obs::json_escape(text) << '"';
}

void write_newline_indent(std::ostream& out, int indent, int depth) {
  out << '\n';
  for (int i = 0; i < indent * depth; ++i) out << ' ';
}

}  // namespace

void Json::write(std::ostream& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out << "null";
      return;
    case Type::kBool:
      out << (bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      if (has_uint_) {
        out << uint_;
      } else {
        out << format_number(number_);
      }
      return;
    case Type::kString:
      write_string(out, string_);
      return;
    case Type::kArray: {
      if (items_.empty()) {
        out << "[]";
        return;
      }
      out << '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out << ',';
        if (indent > 0) {
          write_newline_indent(out, indent, depth + 1);
        } else if (i > 0) {
          out << ' ';
        }
        items_[i].write(out, indent, depth + 1);
      }
      if (indent > 0) write_newline_indent(out, indent, depth);
      out << ']';
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out << "{}";
        return;
      }
      out << '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out << ',';
        if (indent > 0) {
          write_newline_indent(out, indent, depth + 1);
        } else if (i > 0) {
          out << ' ';
        }
        write_string(out, members_[i].first);
        out << ": ";
        members_[i].second.write(out, indent, depth + 1);
      }
      if (indent > 0) write_newline_indent(out, indent, depth);
      out << '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::ostringstream out;
  write(out, indent, 0);
  return out.str();
}

namespace {

/// Recursive-descent parser with line/column tracking. Nesting is capped so
/// a hostile document of unbalanced brackets is an error, not a stack
/// overflow.
class Parser {
 public:
  Parser(std::string_view text, std::string source)
      : text_(text), source_(std::move(source)) {}

  Json parse_document() {
    skip_whitespace();
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing content after JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(source_ + ":" + std::to_string(line_) + ":" +
                             std::to_string(column_) + ": " + message);
  }

  [[noreturn]] void fail_at(int line, int column,
                            const std::string& message) const {
    throw std::runtime_error(source_ + ":" + std::to_string(line) + ":" +
                             std::to_string(column) + ": " + message);
  }

  bool eof() const { return pos_ >= text_.size(); }

  char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    advance();
  }

  void skip_whitespace() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        return;
      }
    }
  }

  void expect_literal(std::string_view literal) {
    for (const char expected : literal) {
      if (eof() || text_[pos_] != expected) {
        fail("invalid literal (expected '" + std::string(literal) + "')");
      }
      advance();
    }
  }

  Json parse_value() {
    if (eof()) fail("unexpected end of input");
    const int line = line_;
    const int column = column_;
    Json value;
    switch (text_[pos_]) {
      case '{':
      case '[':
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " arrays/objects");
        }
        ++depth_;
        value = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        break;
      case '"':
        value = Json::make_string(parse_string());
        break;
      case 't':
        expect_literal("true");
        value = Json::make_bool(true);
        break;
      case 'f':
        expect_literal("false");
        value = Json::make_bool(false);
        break;
      case 'n':
        expect_literal("null");
        value = Json::make_null();
        break;
      default:
        value = parse_number();
        break;
    }
    value.set_position(line, column);
    return value;
  }

  Json parse_object() {
    Json object = Json::make_object();
    expect('{');
    skip_whitespace();
    if (!eof() && text_[pos_] == '}') {
      advance();
      return object;
    }
    while (true) {
      skip_whitespace();
      const int key_line = line_;
      const int key_column = column_;
      if (eof() || text_[pos_] != '"') fail("expected object key string");
      std::string key = parse_string();
      if (object.find(key) != nullptr) {
        fail_at(key_line, key_column, "duplicate key '" + key + "'");
      }
      skip_whitespace();
      expect(':');
      skip_whitespace();
      object.members().emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (eof()) fail("unterminated object");
      if (text_[pos_] == ',') {
        advance();
        continue;
      }
      expect('}');
      return object;
    }
  }

  Json parse_array() {
    Json array = Json::make_array();
    expect('[');
    skip_whitespace();
    if (!eof() && text_[pos_] == ']') {
      advance();
      return array;
    }
    while (true) {
      skip_whitespace();
      array.items().push_back(parse_value());
      skip_whitespace();
      if (eof()) fail("unterminated array");
      if (text_[pos_] == ',') {
        advance();
        continue;
      }
      expect(']');
      return array;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = advance();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape sequence");
      const char escape = advance();
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof()) fail("unterminated \\u escape");
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by any config surface; reject them loudly).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    const int line = line_;
    const int column = column_;
    bool negative = false;
    bool integral = true;
    if (!eof() && text_[pos_] == '-') {
      negative = true;
      advance();
    }
    if (eof() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("invalid number");
    }
    if (text_[pos_] == '0') {
      advance();
      if (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("leading zeros are not allowed");
      }
    } else {
      while (!eof() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        advance();
      }
    }
    if (!eof() && text_[pos_] == '.') {
      integral = false;
      advance();
      if (eof() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digit expected after decimal point");
      }
      while (!eof() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        advance();
      }
    }
    if (!eof() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      advance();
      if (!eof() && (text_[pos_] == '+' || text_[pos_] == '-')) advance();
      if (eof() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digit expected in exponent");
      }
      while (!eof() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        advance();
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral && !negative) {
      std::uint64_t uint_value = 0;
      const auto [ptr, ec] = std::from_chars(
          token.data(), token.data() + token.size(), uint_value);
      if (ec == std::errc{} && ptr == token.data() + token.size()) {
        return Json::make_uint(uint_value);
      }
    }
    const double value = std::strtod(std::string(token).c_str(), nullptr);
    if (std::isinf(value)) {
      fail_at(line, column, "number out of range for a double");
    }
    return Json::make_number(value);
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::string source_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;  // arrays/objects open around the current value
};

}  // namespace

Json parse_json(std::string_view text, const std::string& source_name) {
  return Parser(text, source_name).parse_document();
}

Json parse_json_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_json(buffer.str(), path);
}

void set_by_path(Json& root, std::string_view dotted_path, Json value) {
  Json* node = &root;
  std::string_view remaining = dotted_path;
  while (true) {
    const std::size_t dot = remaining.find('.');
    const std::string_view segment = remaining.substr(0, dot);
    if (segment.empty()) {
      throw std::runtime_error("empty segment in path '" +
                               std::string(dotted_path) + "'");
    }
    if (!node->is_object()) {
      throw std::runtime_error("path '" + std::string(dotted_path) +
                               "' descends into a non-object");
    }
    if (dot == std::string_view::npos) {
      node->set(std::string(segment), std::move(value));
      return;
    }
    Json* next = node->find(segment);
    if (next == nullptr) {
      Json object = Json::make_object();
      object.set_position(value.line(), value.column());
      next = &node->set(std::string(segment), std::move(object));
    }
    node = next;
    remaining = remaining.substr(dot + 1);
  }
}

}  // namespace middlefl::config
