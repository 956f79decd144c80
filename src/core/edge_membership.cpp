#include "core/edge_membership.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace middlefl::core {

void EdgeMembership::rebuild(std::size_t num_edges,
                             std::span<const std::size_t> assignment) {
  devices_ = assignment.size();
  words_ = (devices_ + 63) / 64;
  blocks_ = (devices_ + kBlockDevices - 1) / kBlockDevices;
  bits_.assign(num_edges * words_, 0);
  counts_.assign(num_edges, 0);
  block_counts_.assign(num_edges * blocks_, 0);
  for (std::size_t m = 0; m < devices_; ++m) {
    row_data(assignment[m])[m / 64] |= std::uint64_t{1} << (m % 64);
    ++counts_[assignment[m]];
    ++block_counts_[assignment[m] * blocks_ + m / kBlockDevices];
  }
}

std::size_t EdgeMembership::max_count() const noexcept {
  return counts_.empty() ? 0
                         : *std::max_element(counts_.begin(), counts_.end());
}

void EdgeMembership::at_ranks(std::size_t e,
                              std::span<std::size_t> ranks) const {
  // Ascending ranks let one forward pass serve them all: the block counts
  // find a rank's block, then a popcount scan of at most kBlockDevices / 64
  // words finds its bit.
  const std::uint64_t* row = row_data(e);
  const std::uint32_t* blocks = block_counts_.data() + e * blocks_;
  std::size_t b = 0;
  std::size_t block_before = 0;  // members in blocks [0, b)
  std::size_t w = 0;
  std::size_t before = 0;  // members in row[0, w)
  std::size_t previous = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const std::size_t r = ranks[i];
    if (i > 0 && r <= previous) {
      throw std::invalid_argument(
          "EdgeMembership::at_ranks: ranks must be strictly ascending (rank " +
          std::to_string(r) + " after " + std::to_string(previous) + ")");
    }
    if (r >= counts_[e]) {
      throw std::out_of_range("EdgeMembership::at_ranks: rank " +
                              std::to_string(r) + " past edge " +
                              std::to_string(e) + "'s " +
                              std::to_string(counts_[e]) + " members");
    }
    previous = r;
    while (block_before + blocks[b] <= r) block_before += blocks[b++];
    if (w < b * kBlockWords) {
      w = b * kBlockWords;
      before = block_before;
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
