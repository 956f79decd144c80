#include "core/edge_membership.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "parallel/parallel_for.hpp"

namespace middlefl::core {
namespace {

void check_devices(std::span<const std::size_t> assignment,
                   std::size_t devices) {
  if (assignment.size() != devices) {
    throw std::invalid_argument("EdgeMembership::apply: assignment of " +
                                std::to_string(assignment.size()) +
                                " devices, rows of " + std::to_string(devices));
  }
}

[[noreturn]] void throw_not_ascending(std::size_t m, std::size_t previous) {
  throw std::invalid_argument(
      "EdgeMembership::apply: movers must be strictly ascending (device " +
      std::to_string(m) + " after " + std::to_string(previous) + ")");
}

/// Throws for the first mover in `movers` not above the one before it; the
/// caller has proved there is one.
[[noreturn]] void throw_first_descent(std::span<const std::size_t> movers) {
  const auto it = std::adjacent_find(movers.begin(), movers.end(),
                                     std::greater_equal<>());
  throw_not_ascending(*(it + 1), *it);
}

}  // namespace

void EdgeMembership::rebuild(std::size_t num_edges,
                             std::span<const std::size_t> assignment) {
  if (num_edges > kMaxEdges) {
    throw std::invalid_argument(
        "EdgeMembership::rebuild: " + std::to_string(num_edges) +
        " edges past the " + std::to_string(kMaxEdges) + " the map can name");
  }
  devices_ = assignment.size();
  words_ = (devices_ + 63) / 64;
  blocks_ = (devices_ + kBlockDevices - 1) / kBlockDevices;
  bits_.assign(num_edges * words_, 0);
  counts_.assign(num_edges, 0);
  block_counts_.assign(num_edges * blocks_, 0);
  edge_of_.resize(devices_);
  moved_.clear();
  moved_from_.clear();
  scratch_stride_ = (num_edges + 63) / 64 * 64;
  shard_delta_.clear();
  shard_touched_.clear();
  shard_starts_.reserve(kMaxShards + 1);
  for (std::size_t m = 0; m < devices_; ++m) {
    const std::size_t e = assignment[m];
    if (e >= num_edges) {
      throw std::out_of_range("EdgeMembership::rebuild: device " +
                              std::to_string(m) + " on edge " +
                              std::to_string(e) + " of " +
                              std::to_string(num_edges));
    }
    edge_of_[m] = static_cast<std::uint16_t>(e);
    row_data(e)[m / 64] |= std::uint64_t{1} << (m % 64);
    ++counts_[e];
    ++block_counts_[e * blocks_ + m / kBlockDevices];
  }
}

void EdgeMembership::apply(std::span<const std::size_t> movers,
                           std::span<const std::size_t> assignment) {
  check_devices(assignment, devices_);
  moved_.resize(movers.size());
  apply_moved(movers, assignment);
}

void EdgeMembership::apply(std::span<const std::size_t> assignment) {
  check_devices(assignment, devices_);
  moved_.clear();
  for (std::size_t m = 0; m < devices_; ++m) {
    if (assignment[m] != edge_of_[m]) moved_.push_back(m);
  }
  apply_moved(moved_, assignment);
}

void EdgeMembership::apply_moved(std::span<const std::size_t> movers,
                                 std::span<const std::size_t> assignment) {
  moved_from_.resize(movers.size());
  // Shards are balanced by mover count and start at block boundaries: the
  // k-th starts at the first mover at or past k/S of the list that opens a
  // new block. The starts depend only on the list, never on the pool. A
  // shard writes only the blocks from its first mover's up to the next
  // shard's first mover's, so the starts must open strictly later blocks,
  // as they do in an ascending list; this check keeps the shards disjoint
  // even when a list is not ascending, and the shards check the rest.
  const std::size_t n = movers.size();
  const std::size_t shards =
      std::clamp<std::size_t>(n / kShardMovers, 1, kMaxShards);
  shard_starts_.assign(1, 0);
  for (std::size_t k = 1; k < shards; ++k) {
    const std::size_t previous = shard_starts_.back();
    std::size_t j = std::max(k * n / shards, previous + 1);
    while (j < n &&
           movers[j] / kBlockDevices == movers[j - 1] / kBlockDevices) {
      ++j;
    }
    if (j >= n) break;
    if (movers[j] / kBlockDevices <= movers[previous] / kBlockDevices) {
      throw_first_descent(movers.subspan(previous, j - previous + 1));
    }
    shard_starts_.push_back(j);
  }
  shard_starts_.push_back(n);
  const std::size_t used = shard_starts_.size() - 1;
  if (shard_delta_.size() < used * scratch_stride_) {
    shard_delta_.resize(used * scratch_stride_);
    shard_touched_.resize(used * scratch_stride_);
  }

  const auto run = [&](std::size_t s) {
    const std::size_t hi = shard_starts_[s + 1];
    const std::size_t end = hi < n
                                ? movers[hi] / kBlockDevices * kBlockDevices
                                : std::numeric_limits<std::size_t>::max();
    apply_shard(s, movers, shard_starts_[s], hi, end, assignment);
  };
  if (used == 1) {
    run(0);
  } else {
    parallel::parallel_for(pool_, 0, used, run);
  }

  for (std::size_t s = 0; s < used; ++s) {
    std::int64_t* delta = shard_delta_.data() + s * scratch_stride_;
    for (std::size_t e = 0; e < counts_.size(); ++e) {
      counts_[e] = static_cast<std::size_t>(
          static_cast<std::int64_t>(counts_[e]) + delta[e]);
      delta[e] = 0;
    }
  }
}

void EdgeMembership::apply_shard(std::size_t s,
                                 std::span<const std::size_t> movers,
                                 std::size_t lo, std::size_t hi,
                                 std::size_t end,
                                 std::span<const std::size_t> assignment) {
  // The pass is bound by the strided assignment and map reads: it
  // prefetches both for the mover kPrefetchMovers ahead in the shard (only
  // for an id inside the fleet, so a malformed list still throws below)
  // and keeps its state in locals the row stores cannot alias. Movers
  // arrive ascending, so each block's moves are contiguous: flip them,
  // flagging the edges they touch, then recount the block once before
  // moving on. When the list is moved_ itself it is already recorded, and
  // the shards leave it unwritten, as other shards read its entries next
  // to their own.
  const std::size_t devices = devices_;
  const std::size_t edges = num_edges();
  const std::size_t words = words_;
  std::uint64_t* bits = bits_.data();
  std::uint16_t* edge_of = edge_of_.data();
  std::uint16_t* from_out = moved_from_.data();
  std::size_t* moved =
      movers.data() == moved_.data() ? nullptr : moved_.data();
  std::uint8_t* touched = shard_touched_.data() + s * scratch_stride_;
  std::int64_t* delta = shard_delta_.data() + s * scratch_stride_;
  std::size_t block = 0;
  std::size_t block_end = 0;  // one past the current block's last device
  for (std::size_t i = lo; i < hi; ++i) {
    if (hi - i > kPrefetchMovers) {
      const std::size_t ahead = movers[i + kPrefetchMovers];
      if (ahead < devices) {
        __builtin_prefetch(assignment.data() + ahead);
        __builtin_prefetch(edge_of + ahead, 1);
      }
    }
    const std::size_t m = movers[i];
    if (i > 0 && m <= movers[i - 1]) throw_not_ascending(m, movers[i - 1]);
    // A mover in the next shard's blocks means the list descends in
    // [i, hi]: if [i, hi) ascends, movers[hi - 1] >= end lies in a block
    // other than movers[hi]'s (the one starting at end), so a later one.
    if (m >= end) throw_first_descent(movers.subspan(i, hi - i + 1));
    const std::size_t to = m < devices ? assignment[m] : edges;
    if (to >= edges) {
      throw std::out_of_range("EdgeMembership::apply: device " +
                              std::to_string(m) + " or its edge out of range");
    }
    if (m >= block_end) {
      if (i > lo) recount_touched(block, touched, delta);
      block = m / kBlockDevices;
      block_end = (block + 1) * kBlockDevices;
    }
    const std::size_t from = edge_of[m];
    if (moved != nullptr) moved[i] = m;
    from_out[i] = static_cast<std::uint16_t>(from);
    edge_of[m] = static_cast<std::uint16_t>(to);
    const std::uint64_t bit = std::uint64_t{1} << (m % 64);
    bits[from * words + m / 64] &= ~bit;
    bits[to * words + m / 64] |= bit;
    touched[from] = 1;
    touched[to] = 1;
  }
  if (hi > lo) recount_touched(block, touched, delta);
}

void EdgeMembership::recount_touched(std::size_t b, std::uint8_t* touched,
                                     std::int64_t* delta) {
  const std::size_t first = b * kBlockWords;
  const std::size_t last = std::min(words_, first + kBlockWords);
  for (std::size_t e = 0; e < num_edges(); ++e) {
    if (touched[e] == 0) continue;
    touched[e] = 0;
    const std::uint64_t* row = row_data(e);
    std::uint32_t ones = 0;
    for (std::size_t w = first; w < last; ++w) {
      ones += static_cast<std::uint32_t>(std::popcount(row[w]));
    }
    std::uint32_t& held = block_counts_[e * blocks_ + b];
    delta[e] += static_cast<std::int64_t>(ones) - held;
    held = ones;
  }
}

std::size_t EdgeMembership::max_count() const noexcept {
  return counts_.empty() ? 0
                         : *std::max_element(counts_.begin(), counts_.end());
}

std::size_t EdgeMembership::previous_edge(std::size_t m) const noexcept {
  const auto it = std::lower_bound(moved_.begin(), moved_.end(), m);
  if (it != moved_.end() && *it == m) {
    return moved_from_[static_cast<std::size_t>(it - moved_.begin())];
  }
  return edge_of_[m];
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
