#include "core/edge_membership.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace middlefl::core {

void EdgeMembership::rebuild(std::size_t num_edges,
                             std::span<const std::size_t> assignment) {
  devices_ = assignment.size();
  words_ = (devices_ + 63) / 64;
  bits_.assign(num_edges * words_, 0);
  counts_.assign(num_edges, 0);
  for (std::size_t m = 0; m < devices_; ++m) {
    row_data(assignment[m])[m / 64] |= std::uint64_t{1} << (m % 64);
    ++counts_[assignment[m]];
  }
}

std::size_t EdgeMembership::max_count() const noexcept {
  return counts_.empty() ? 0
                         : *std::max_element(counts_.begin(), counts_.end());
}

void EdgeMembership::at_ranks(std::size_t e,
                              std::span<std::size_t> ranks) const {
  // Resolve the ranks in ascending order so one forward scan serves all.
  std::vector<std::size_t> order(ranks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ranks[a] < ranks[b];
  });
  const std::uint64_t* row = row_data(e);
  std::size_t w = 0;
  std::size_t before = 0;  // set bits in row[0, w)
  for (const std::size_t i : order) {
    const std::size_t r = ranks[i];
    if (r >= counts_[e]) {
      throw std::out_of_range("EdgeMembership::at_ranks: rank " +
                              std::to_string(r) + " past edge " +
                              std::to_string(e) + "'s " +
                              std::to_string(counts_[e]) + " members");
    }
    for (std::size_t ones = std::popcount(row[w]); before + ones <= r;
         ones = std::popcount(row[w])) {
      before += ones;
      ++w;
    }
    std::uint64_t bits = row[w];
    for (std::size_t skip = r - before; skip > 0; --skip) bits &= bits - 1;
    ranks[i] = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }
}

std::vector<std::size_t> EdgeMembership::members(std::size_t e) const {
  std::vector<std::size_t> ids;
  ids.reserve(counts_[e]);
  for_each(e, [&](std::size_t m) { ids.push_back(m); });
  return ids;
}

}  // namespace middlefl::core
