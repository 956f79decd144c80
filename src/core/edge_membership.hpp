// Which devices each edge holds this step, as one n-bit row per edge.
//
// Bit m of row e is set when device m is connected to edge e, and a
// per-edge count rides along, as does a count per edge per block of 4096
// devices. Walking a row's set bits yields the members in ascending id
// order, the canonical candidate order selection and the settle scan use.
// A mover costs two bit flips (clear its old edge, set its new one) and
// two block-count updates, so keeping the rows current is O(movers) per
// step; only a rebuild from the assignment is O(n). The block counts let
// at_ranks find the K selected ranks in O(n / 4096 + K * 64) per edge
// instead of popcounting the whole row.
//
// Footprint: E rows of n bits, E*n/8 bytes (1 MB for 1M devices on 8
// edges), plus E*n/1024 bytes of block counts. Per-edge id lists cost 8
// bytes per device whatever E is, so the rows stay smaller up to 64 edges.
//
// Rows are written only at serial points (rebuild/move) and read
// concurrently by the per-edge chains.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace middlefl::core {

class EdgeMembership {
 public:
  /// Rows for `num_edges` edges over `assignment.size()` devices, where
  /// device m sits on edge assignment[m] (< num_edges).
  void rebuild(std::size_t num_edges, std::span<const std::size_t> assignment);
  /// Moves device m from edge `from` (where it must be) to edge `to`.
  void move(std::size_t m, std::size_t from, std::size_t to) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (m % 64);
    row_data(from)[m / 64] &= ~bit;
    row_data(to)[m / 64] |= bit;
    --counts_[from];
    ++counts_[to];
    --block_counts_[from * blocks_ + m / kBlockDevices];
    ++block_counts_[to * blocks_ + m / kBlockDevices];
  }

  std::size_t num_edges() const noexcept { return counts_.size(); }
  std::size_t num_devices() const noexcept { return devices_; }
  /// Devices on edge e.
  std::size_t count(std::size_t e) const noexcept { return counts_[e]; }
  /// The largest count over the edges (0 with no edges).
  std::size_t max_count() const noexcept;

  /// Calls f(m) for every device m on edge e, ascending.
  template <typename F>
  void for_each(std::size_t e, F&& f) const {
    const std::uint64_t* row = row_data(e);
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Replaces each rank r in `ranks` (a position in edge e's ascending
  /// member order, r < count(e)) with the id at that position. The ranks
  /// must be strictly ascending, as random selection returns them; one
  /// forward pass over the block counts and the row serves them all, with
  /// no allocation.
  /// Throws std::invalid_argument on a non-ascending rank and
  /// std::out_of_range on a rank past the edge's count.
  void at_ranks(std::size_t e, std::span<std::size_t> ranks) const;

  /// Edge e's members as an ascending list.
  std::vector<std::size_t> members(std::size_t e) const;

 private:
  std::uint64_t* row_data(std::size_t e) noexcept {
    return bits_.data() + e * words_;
  }
  const std::uint64_t* row_data(std::size_t e) const noexcept {
    return bits_.data() + e * words_;
  }

  static constexpr std::size_t kBlockDevices = 4096;
  static constexpr std::size_t kBlockWords = kBlockDevices / 64;

  std::size_t devices_ = 0;
  std::size_t words_ = 0;   // 64-bit words per row
  std::size_t blocks_ = 0;  // kBlockDevices-device blocks per row
  std::vector<std::uint64_t> bits_;
  std::vector<std::size_t> counts_;
  /// Members of edge e in device block b at [e * blocks_ + b].
  std::vector<std::uint32_t> block_counts_;
};

}  // namespace middlefl::core
