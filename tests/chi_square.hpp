// Chi-square statistics for the stream-contract tests: the v2 draw
// patterns must reproduce the distributions of the v1 loops they replaced
// (kept in the tests as references), not their bits.
//
// Every caller uses fixed seeds, so each test is deterministic; the
// significance level only says how unlikely a pass would be under a real
// distribution mismatch of the size the sample can resolve.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>

namespace middlefl::testing {

struct ChiSquare {
  double statistic = 0.0;
  std::size_t df = 0;

  ChiSquare& operator+=(const ChiSquare& other) {
    statistic += other.statistic;
    df += other.df;
    return *this;
  }

  /// Upper-tail critical value at standard-normal quantile z (3.719 is
  /// alpha = 1e-4), by the Wilson-Hilferty cube approximation.
  double critical(double z = 3.719) const {
    const double d = static_cast<double>(df);
    const double c = 2.0 / (9.0 * d);
    return d * std::pow(1.0 - c + z * std::sqrt(c), 3.0);
  }
  bool passes() const { return df == 0 || statistic <= critical(); }

  std::string describe() const {
    std::ostringstream os;
    os << "chi2 " << statistic << " on " << df << " df (critical "
       << (df == 0 ? 0.0 : critical()) << ")";
    return os.str();
  }
};

/// Two-sample homogeneity test: are the category counts `a` and `b` draws
/// from one distribution? Cells empty in both samples carry no degrees of
/// freedom.
inline ChiSquare two_sample(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) {
  double total_a = 0.0;
  double total_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total_a += static_cast<double>(a[i]);
    total_b += static_cast<double>(b[i]);
  }
  ChiSquare out;
  if (total_a == 0.0 || total_b == 0.0) return out;
  const double wa = std::sqrt(total_b / total_a);
  const double wb = std::sqrt(total_a / total_b);
  std::size_t cells = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = static_cast<double>(a[i]);
    const double y = static_cast<double>(b[i]);
    if (x + y == 0.0) continue;
    const double diff = wa * x - wb * y;
    out.statistic += diff * diff / (x + y);
    ++cells;
  }
  out.df = cells > 0 ? cells - 1 : 0;
  return out;
}

/// Goodness of fit of `counts` to the uniform distribution over its cells.
inline ChiSquare uniform_fit(std::span<const std::uint64_t> counts) {
  double total = 0.0;
  for (const std::uint64_t c : counts) total += static_cast<double>(c);
  ChiSquare out;
  if (counts.empty() || total == 0.0) return out;
  const double expected = total / static_cast<double>(counts.size());
  for (const std::uint64_t c : counts) {
    const double diff = static_cast<double>(c) - expected;
    out.statistic += diff * diff / expected;
  }
  out.df = counts.size() - 1;
  return out;
}

}  // namespace middlefl::testing
