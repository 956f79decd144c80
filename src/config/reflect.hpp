// Field reflection for config structs: one describe() per struct drives
// serialization, deserialization, counting and perturbation.
//
// A struct opts into the scenario layer by specializing Schema<T>:
//
//   template <> struct Schema<LinkPolicy> {
//     template <class V> static void describe(V& v, LinkPolicy& p) {
//       v.field("loss_prob", p.loss_prob);
//       v.field("compression", p.compression);  // nested: Schema<Compression…>
//     }
//   };
//
// The same describe() body is then walked by four visitors:
//
//   JsonEncoder    struct -> config::Json (canonical member order = the
//                  describe order, so serialization is deterministic)
//   JsonDecoder    config::Json -> struct, strict: type mismatches and
//                  unknown keys are errors with file:line:column context;
//                  absent keys keep the member's default
//   FieldCounter   counts leaf fields — the schema-registration guard
//                  (config_test pins the count per struct, so adding a
//                  member without a describe() entry fails the suite)
//   FieldPerturber deterministically mutates the i-th leaf — drives the
//                  round-trip property test over every field
//
// Leaf vocabulary: bool, double, float, unsigned integers (size_t /
// uint64), std::string, plus one special form:
//
//   choice(name, current, options, apply)  enum-as-string fields; the
//       apply callback parses+validates, and the options list both
//       documents the legal values and lets the perturber cycle them.
//
// There are no alias spellings: a key is either a schema field or an
// unknown-key error.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "config/json.hpp"

namespace middlefl::config {

/// Specialize per reflected struct; see the header comment.
template <class T>
struct Schema;

using ChoiceApply = std::function<void(const std::string&)>;
using ChoiceOptions = std::initializer_list<std::string_view>;

namespace detail {

template <class T>
concept UnsignedField =
    std::unsigned_integral<T> && !std::same_as<T, bool>;

/// A nested reflected struct: anything without a dedicated leaf overload.
template <class T>
concept StructField = !std::is_arithmetic_v<T> &&
                      !std::same_as<T, std::string>;

}  // namespace detail

// ---------------------------------------------------------------------------
// JsonEncoder

class JsonEncoder {
 public:
  JsonEncoder() : out_(Json::make_object()) {}

  void field(const char* name, bool& v) { out_.set(name, Json::make_bool(v)); }
  void field(const char* name, double& v) {
    out_.set(name, Json::make_number(v));
  }
  void field(const char* name, float& v) {
    out_.set(name, Json::make_number(static_cast<double>(v)));
  }
  void field(const char* name, std::string& v) {
    out_.set(name, Json::make_string(v));
  }
  template <detail::UnsignedField T>
  void field(const char* name, T& v) {
    out_.set(name, Json::make_uint(static_cast<std::uint64_t>(v)));
  }
  template <detail::StructField T>
  void field(const char* name, T& v) {
    JsonEncoder sub;
    Schema<T>::describe(sub, v);
    out_.set(name, std::move(sub).take());
  }

  void choice(const char* name, const std::string& current, ChoiceOptions,
              const ChoiceApply&) {
    out_.set(name, Json::make_string(current));
  }

  Json take() && { return std::move(out_); }

 private:
  Json out_;
};

/// Serializes a reflected struct to its canonical Json form. describe()
/// takes a mutable reference (the decoder writes through it); encoding
/// never actually mutates, hence the const_cast.
template <class T>
Json to_json(const T& value) {
  JsonEncoder encoder;
  Schema<T>::describe(encoder, const_cast<T&>(value));
  return std::move(encoder).take();
}

// ---------------------------------------------------------------------------
// JsonDecoder

class JsonDecoder {
 public:
  /// `node` must outlive the decoder. `source` names the file (or buffer)
  /// in error messages.
  JsonDecoder(const Json& node, std::string source)
      : node_(node),
        source_(std::move(source)),
        used_(node.is_object() ? node.members().size() : 0, false) {
    if (!node_.is_object()) {
      fail(node_, "expected an object");
    }
  }

  void field(const char* name, bool& v) {
    if (const Json* m = take(name)) {
      if (!m->is_bool()) fail(*m, expected(name, "true or false"));
      v = m->as_bool();
    }
  }
  void field(const char* name, double& v) {
    if (const Json* m = take(name)) {
      if (!m->is_number()) fail(*m, expected(name, "a number"));
      v = m->as_number();
    }
  }
  void field(const char* name, float& v) {
    if (const Json* m = take(name)) {
      if (!m->is_number()) fail(*m, expected(name, "a number"));
      v = static_cast<float>(m->as_number());
    }
  }
  void field(const char* name, std::string& v) {
    if (const Json* m = take(name)) {
      if (!m->is_string()) fail(*m, expected(name, "a string"));
      v = m->as_string();
    }
  }
  template <detail::UnsignedField T>
  void field(const char* name, T& v) {
    if (const Json* m = take(name)) {
      if (!m->is_unsigned()) {
        fail(*m, expected(name, "a non-negative integer"));
      }
      v = static_cast<T>(m->as_uint());
    }
  }
  template <detail::StructField T>
  void field(const char* name, T& v) {
    if (const Json* m = take(name)) {
      if (!m->is_object()) fail(*m, expected(name, "an object"));
      JsonDecoder sub(*m, source_);
      Schema<T>::describe(sub, v);
      sub.finish();
    }
  }

  void choice(const char* name, const std::string&, ChoiceOptions options,
              const ChoiceApply& apply) {
    if (const Json* m = take(name)) {
      if (!m->is_string()) fail(*m, expected(name, "a string"));
      try {
        apply(m->as_string());
      } catch (const std::invalid_argument& e) {
        std::string legal;
        for (const std::string_view option : options) {
          legal += legal.empty() ? "" : "|";
          legal += option;
        }
        fail(*m, std::string("key '") + name + "': " + e.what() + " (" +
                     legal + ")");
      }
    }
  }

  /// Rejects keys the describe() walk never consumed — the unknown-key
  /// error with file/line context the scenario contract requires.
  void finish() const {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (!used_[i]) {
        const auto& [key, value] = node_.members()[i];
        fail(value, "unknown key '" + key + "'");
      }
    }
  }

 private:
  static std::string expected(const char* name, const char* what) {
    return std::string("key '") + name + "' expects " + what;
  }

  [[noreturn]] void fail(const Json& at, const std::string& message) const {
    throw std::runtime_error(position_of(source_, at) + ": " + message);
  }

  const Json* take(const char* name) {
    const auto& members = node_.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].first == name) {
        used_[i] = true;
        return &members[i].second;
      }
    }
    return nullptr;
  }

  const Json& node_;
  std::string source_;
  std::vector<bool> used_;
};

/// Decodes `node` into `out` strictly (unknown keys rejected). Absent keys
/// keep whatever `out` already holds, so defaults come from the struct.
template <class T>
void from_json(const Json& node, const std::string& source, T& out) {
  JsonDecoder decoder(node, source);
  Schema<T>::describe(decoder, out);
  decoder.finish();
}

// ---------------------------------------------------------------------------
// FieldCounter

class FieldCounter {
 public:
  void field(const char*, bool&) { ++count_; }
  void field(const char*, double&) { ++count_; }
  void field(const char*, float&) { ++count_; }
  void field(const char*, std::string&) { ++count_; }
  template <detail::UnsignedField T>
  void field(const char*, T&) {
    ++count_;
  }
  template <detail::StructField T>
  void field(const char*, T& v) {
    Schema<T>::describe(*this, v);
  }
  void choice(const char*, const std::string&, ChoiceOptions,
              const ChoiceApply&) {
    ++count_;
  }

  std::size_t count() const noexcept { return count_; }

 private:
  std::size_t count_ = 0;
};

/// Number of leaf fields in T's schema (nested structs flattened).
template <class T>
std::size_t count_fields() {
  T value{};
  FieldCounter counter;
  Schema<T>::describe(counter, value);
  return counter.count();
}

// ---------------------------------------------------------------------------
// FieldPerturber

/// Deterministically mutates the `target`-th leaf (in describe order) to a
/// value different from — but still schema-legal relative to — what it
/// held. Drives the per-field round-trip property test.
class FieldPerturber {
 public:
  explicit FieldPerturber(std::size_t target) : target_(target) {}

  void field(const char* name, bool& v) {
    if (claim(name)) v = !v;
  }
  void field(const char* name, double& v) {
    if (claim(name)) v = v * 0.5 + 0.3125;
  }
  void field(const char* name, float& v) {
    if (claim(name)) v = v * 0.5f + 0.3125f;
  }
  void field(const char* name, std::string& v) {
    if (claim(name)) v += "-x";
  }
  template <detail::UnsignedField T>
  void field(const char* name, T& v) {
    if (claim(name)) v = v * 2 + 3;
  }
  template <detail::StructField T>
  void field(const char*, T& v) {
    Schema<T>::describe(*this, v);
  }
  void choice(const char* name, const std::string& current,
              ChoiceOptions options, const ChoiceApply& apply) {
    if (!claim(name)) return;
    // Cycle to the next legal option after the current one.
    std::size_t current_index = 0;
    std::size_t i = 0;
    for (const std::string_view option : options) {
      if (option == current) current_index = i;
      ++i;
    }
    i = 0;
    const std::size_t pick = (current_index + 1) % options.size();
    for (const std::string_view option : options) {
      if (i++ == pick) {
        apply(std::string(option));
        return;
      }
    }
  }

  bool done() const noexcept { return done_; }
  /// Name of the mutated leaf (for test diagnostics).
  const std::string& mutated() const noexcept { return mutated_; }

 private:
  bool claim(const char* name) {
    if (index_++ != target_) return false;
    done_ = true;
    mutated_ = name;
    return true;
  }

  std::size_t target_ = 0;
  std::size_t index_ = 0;
  bool done_ = false;
  std::string mutated_;
};

/// Mutates leaf `index` of `value`; returns the leaf's field name (empty
/// when `index` is out of range).
template <class T>
std::string perturb_field(T& value, std::size_t index) {
  FieldPerturber perturber(index);
  Schema<T>::describe(perturber, value);
  return perturber.done() ? perturber.mutated() : std::string();
}

}  // namespace middlefl::config
