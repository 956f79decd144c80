// Markov edge-transition mobility (the paper's model in §3.2).
//
// At each time step, device m jumps to another edge with probability P_m
// and stays put otherwise. The global mobility P is the mean of P_m over
// devices — exactly the quantity swept in Fig. 7.
//
// Stream contract v2 (docs/ARCHITECTURE.md, "Stream contract v2"). The
// fleet splits into fixed shards — shard_count(n) = ceil(n / 16384)
// clamped to [1, 64], each ceil(n / shards) devices long — and the
// boundaries are part of the contract. Shard s at step t draws from one
// Xoshiro256 stream keyed (seed, t, s), in device order:
//   1. a geometric gap at rate P_max = max P_m jumps to the next
//      candidate. The gap is read off a table of (1 - P_max)^g built by
//      repeated multiplication (no libm call, so every ISA and libm picks
//      the same gap). P_max = 0 draws nothing; P_max = 1 makes every device
//      a candidate without gap draws;
//   2. a candidate with P_m < P_max is accepted when u * P_max < P_m (one
//      uniform draw); P_m = P_max accepts without a draw;
//   3. an accepted device draws its destination from the same stream.
// So a step costs O(P_max * n) draws, and the pool runs shards in parallel:
// each writes only its own slice of the assignment and emits a local
// ascending mover list, concatenated in shard order. Serial and pooled
// runs are bitwise equal at every pool size. The v1 pattern (one stream
// per (device, step)) survives only as the statistical reference in
// mobility_parallel_test.
#pragma once

#include "mobility/edge_id.hpp"
#include "mobility/mobility_model.hpp"
#include "parallel/rng.hpp"

namespace middlefl::mobility {

/// Where a moving device goes.
///
/// Real mobility has locality: users commute between nearby cells and keep
/// returning to a home region, so the class/location correlation that makes
/// edge data Non-IID persists over time. kUniform teleports movers to any
/// other edge and therefore mixes edge populations into IID within a few
/// steps (useful as an ablation); kRing moves to an adjacent edge on a ring
/// of edges; kHomeRing moves to an adjacent edge but returns the device to
/// its HOME edge with probability `home_bias` (commuter pattern, default
/// for the paper-style experiments).
enum class MoveTopology { kUniform, kRing, kHomeRing };

/// "uniform" | "ring" | "home-ring".
std::string to_string(MoveTopology topology);
/// Inverse of to_string; also accepts the legacy "home_ring" spelling.
/// Throws std::invalid_argument for anything else.
MoveTopology parse_topology(const std::string& name);

/// Memory: 10 bytes per device — the current assignment (8, the size_t
/// vector MobilityModel::assignment() returns) and the home edges of the
/// initial assignment as 2-byte EdgeIds — plus 8 per device only when the
/// P_m differ.
class MarkovMobility final : public MobilityModel {
 public:
  /// Uniform move probability P for all devices. Throws
  /// std::invalid_argument on no edges or more than kMaxEdges, and
  /// std::out_of_range on an initial edge >= num_edges.
  MarkovMobility(std::vector<std::size_t> initial_assignment,
                 std::size_t num_edges, double move_probability,
                 std::uint64_t seed);

  /// Heterogeneous per-device probabilities P_m (global P is their mean).
  /// An empty vector means P_m = 0 for every device (no movement). Throws
  /// as the constructor above.
  MarkovMobility(std::vector<std::size_t> initial_assignment,
                 std::size_t num_edges,
                 std::vector<double> move_probabilities, std::uint64_t seed);

  /// Selects the destination distribution for moves. `home_bias` only
  /// applies to kHomeRing; the home edge is the initial assignment.
  void set_topology(MoveTopology topology, double home_bias = 0.5);
  MoveTopology topology() const noexcept { return topology_; }

  std::string name() const override { return "markov"; }
  std::size_t num_devices() const override { return current_.size(); }
  std::size_t num_edges() const override { return num_edges_; }
  const std::vector<std::size_t>& assignment() const override {
    return current_;
  }
  void advance() override;
  const std::vector<std::size_t>* movers() const override { return &movers_; }
  void set_pool(parallel::ThreadPool* pool) override { pool_ = pool; }
  void reset() override;
  std::size_t step() const override { return step_; }

  /// Mean of P_m over devices (cached; probabilities are fixed after
  /// construction, so there is nothing to invalidate — a future mutator
  /// must call finalize_probabilities()).
  double global_mobility() const noexcept { return global_mobility_; }

  /// Shards of an n-device fleet: ceil(n / 16384) clamped to [1, 64].
  /// Part of the stream contract — it depends only on n, never on the pool.
  static std::size_t shard_count(std::size_t devices) noexcept;

 private:
  /// Sets P_max from move_prob_ (dropping the vector when every device
  /// shares it; an empty vector keeps the P_max already set, 0 unless the
  /// scalar constructor set it), recomputes the cached global mobility and
  /// rebuilds the gap table.
  void finalize_probabilities();
  /// Walks shard s, devices [lo, hi), on its (seed, step, s) stream,
  /// moving accepted devices per kTopology and appending movers in
  /// ascending id order. Thread-safe across shards: each writes only its
  /// own current_ slots.
  template <MoveTopology kTopology>
  void advance_shard(std::size_t s, std::size_t lo, std::size_t hi,
                     std::vector<std::size_t>& movers);

  /// How far ahead of the current candidate the walk prefetches its
  /// assignment slot (64 cache lines of size_t).
  static constexpr std::size_t kPrefetchDevices = 512;

  /// The initial assignment (each device's home edge), restored by reset().
  std::vector<EdgeId> initial_;
  std::vector<std::size_t> current_;
  std::size_t num_edges_;
  /// Per-device P_m; empty when every device has P_max (then no acceptance
  /// draw is ever made, so the walk never reads it).
  std::vector<double> move_prob_;
  parallel::StreamRng streams_;
  /// survival_[g] = (1 - P_max)^g by repeated multiplication, for g = 0
  /// up to the shard length or the first value <= 2^-53 (a uniform draw
  /// below it can only be 0). Empty unless 0 < P_max < 1.
  std::vector<double> survival_;
  /// Search accelerator for the gap draw, not part of the contract: per
  /// bucket of the uniform draw, a lower bound on the gap.
  static constexpr std::size_t kGuideBuckets = 1024;
  std::vector<std::size_t> guide_;
  double p_max_ = 0.0;
  std::vector<std::size_t> movers_;
  std::vector<std::vector<std::size_t>> shard_movers_;
  parallel::ThreadPool* pool_ = nullptr;
  double global_mobility_ = 0.0;
  std::size_t step_ = 0;
  MoveTopology topology_ = MoveTopology::kUniform;
  double home_bias_ = 0.5;
};

}  // namespace middlefl::mobility
