// Which devices each edge holds this step, as one n-bit row per edge, and
// the edge each device sits on.
//
// Bit m of row e is set when device m is connected to edge e. A per-edge
// count rides along, as does a count per edge per block of 4096 devices.
// Walking a row's set bits yields the members in ascending id order, the
// canonical candidate order metadata selection uses. The block
// counts let at_ranks find the K selected ranks in O(n / 4096 + K * 64)
// per edge instead of popcounting the whole row.
//
// The class owns the device -> edge map (edge_of_, 2 bytes per device), so
// a step's update needs only the ascending mover list and the new
// assignment: apply() reads each mover's old edge from the map, flips its
// two bits and records where it came from, then recounts every touched
// 4096-device block by popcounting the touched edges' words there and
// moves the edge counts by the block differences. That is O(movers) with
// no per-mover counter update; only rebuild() is O(n). The recorded movers
// answer previous_edge() until the next apply().
//
// apply() splits the mover list at 4096-device block boundaries into
// shards of at least kShardMovers movers (at most kMaxShards) and runs them
// on the pool set_pool() names. A shard writes only its own blocks' words,
// map entries and block counts and its own slots of the recorded movers;
// its count deltas go to per-shard scratch, folded into the edge counts
// afterwards. Integer sums do not depend on order, so every view is the
// same at any pool size. Fewer than 2 * kShardMovers movers run as one
// shard inline.
//
// Footprint: E rows of n bits plus the map, E*n/8 + 2n bytes (3 MB for 1M
// devices on 8 edges), plus E*n/1024 bytes of block counts, 10 bytes per
// recorded mover and up to kMaxShards shards of scratch (a count delta and
// a touched flag per edge, each shard's rounded up to 64 edges: 36 KB up to
// 64 edges). Per-edge id lists cost 8 bytes per device whatever E is, so
// the rows stay smaller up to 48 edges.
//
// Rows are written only while rebuild/apply run, at the step's serial
// point (apply's shards fan out from it and join before it returns), and
// read concurrently by the per-edge chains.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mobility/edge_id.hpp"

namespace middlefl::parallel {
class ThreadPool;
}  // namespace middlefl::parallel

namespace middlefl::core {

class EdgeMembership {
 public:
  /// The most edges the 2-byte device -> edge map can name.
  static constexpr std::size_t kMaxEdges = mobility::kMaxEdges;

  /// Rows for `num_edges` edges over `assignment.size()` devices, where
  /// device m sits on edge assignment[m] (< num_edges). Clears the
  /// recorded movers. Throws std::invalid_argument past kMaxEdges edges and
  /// std::out_of_range on an edge >= num_edges.
  void rebuild(std::size_t num_edges, std::span<const std::size_t> assignment);

  /// The pool apply() shards over (nullptr: every shard inline).
  void set_pool(parallel::ThreadPool* pool) noexcept { pool_ = pool; }

  /// Moves each device in `movers` (strictly ascending ids) from the edge
  /// it sits on to assignment[m], and records where it came from. A listed
  /// device whose edge is unchanged stays put. Throws std::invalid_argument
  /// on a size mismatch or a non-ascending list and std::out_of_range on an
  /// id or edge out of range (with several faults in a sharded list, which
  /// one is reported is unspecified); after a throw the rows are
  /// unspecified until the next rebuild.
  void apply(std::span<const std::size_t> movers,
             std::span<const std::size_t> assignment);
  /// The same update for a mobility model that reports no movers: the
  /// movers are the devices whose assignment differs from the held edge
  /// (an O(n) diff, then the apply above).
  void apply(std::span<const std::size_t> assignment);

  std::size_t num_edges() const noexcept { return counts_.size(); }
  std::size_t num_devices() const noexcept { return devices_; }
  /// Devices on edge e.
  std::size_t count(std::size_t e) const noexcept { return counts_[e]; }
  /// The largest count over the edges (0 with no edges).
  std::size_t max_count() const noexcept;
  /// The edge device m sits on.
  std::size_t edge_of(std::size_t m) const noexcept { return edge_of_[m]; }
  /// The devices the last apply() moved, ascending (empty after rebuild).
  std::span<const std::size_t> movers() const noexcept { return moved_; }
  /// The edge device m sat on before the last apply(): a binary search of
  /// the recorded movers, else its current edge.
  std::size_t previous_edge(std::size_t m) const noexcept;

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
  /// Moves each device in `movers` and records it in moved_ (the body of
  /// both apply overloads, after they checked the assignment's size and
  /// sized moved_; `movers` may be moved_ itself): splits the list into
  /// shards and runs apply_shard on each.
  void apply_moved(std::span<const std::size_t> movers,
                   std::span<const std::size_t> assignment);
  /// Moves movers[lo, hi), every one of them below device `end` (the first
  /// device of the next shard's first block), with shard s's scratch.
  void apply_shard(std::size_t s, std::span<const std::size_t> movers,
                   std::size_t lo, std::size_t hi, std::size_t end,
                   std::span<const std::size_t> assignment);
  /// Recounts block b of every edge flagged in `touched`, clears the flags
  /// and adds the count differences to `delta`.
  void recount_touched(std::size_t b, std::uint8_t* touched,
                       std::int64_t* delta);

  static constexpr std::size_t kBlockDevices = 4096;
  static constexpr std::size_t kBlockWords = kBlockDevices / 64;
  /// The fewest movers a shard of apply() takes, and the most shards.
  static constexpr std::size_t kShardMovers = 4096;
  static constexpr std::size_t kMaxShards = 64;
  /// How far ahead in its list apply_shard prefetches a mover's
  /// assignment and map entries.
  static constexpr std::size_t kPrefetchMovers = 24;

  std::size_t devices_ = 0;
  std::size_t words_ = 0;   // 64-bit words per row
  std::size_t blocks_ = 0;  // kBlockDevices-device blocks per row
  std::vector<std::uint64_t> bits_;
  std::vector<std::size_t> counts_;
  /// Members of edge e in device block b at [e * blocks_ + b].
  std::vector<std::uint32_t> block_counts_;
  /// The edge each device sits on.
  std::vector<std::uint16_t> edge_of_;
  /// The last apply's movers (ascending) and the edge each one left.
  std::vector<std::size_t> moved_;
  std::vector<std::uint16_t> moved_from_;
  /// Per-shard scratch, `scratch_stride_` entries a shard (the edge count
  /// rounded up to 64, so no two shards' flags share a cache line): the
  /// count change of each edge over the shard's blocks, zero between
  /// applies, and a 1 for each edge whose rows the shard's current block
  /// changed.
  std::size_t scratch_stride_ = 0;
  std::vector<std::int64_t> shard_delta_;
  std::vector<std::uint8_t> shard_touched_;
  /// The index in the mover list where each shard starts, then the list's
  /// size.
  std::vector<std::size_t> shard_starts_;
  parallel::ThreadPool* pool_ = nullptr;
};

}  // namespace middlefl::core
