// Strict number parsing for the loaders of outside input.
//
// std::stoul reads "-3" as 2^64 - 3 and "5abc" as 5, std::stod reads
// "0.5x" as 0.5, and both throw std::invalid_argument (not the loaders'
// documented std::runtime_error) on "abc". A loader wants one rule
// instead: the whole token is one number of the field's type, or the
// input is malformed.
#pragma once

#include <charconv>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace middlefl::util {

/// Parses all of `token` as a T (an unsigned integer or a floating-point
/// type) with std::from_chars: no whitespace, no '+', no sign on unsigned
/// types, nothing after the number, no overflow. Anything else throws
/// std::runtime_error("<where>: expected <kind>, got '<token>'"), so
/// `where` should name the field and its line.
template <class T>
T parse_number(std::string_view token, std::string_view where) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc{} || stop != end) {
    throw std::runtime_error(
        std::string(where) + ": expected " +
        (std::is_unsigned_v<T> ? "a non-negative integer" : "a number") +
        ", got '" + std::string(token) + "'");
  }
  return value;
}

}  // namespace middlefl::util
