// Markov edge-transition mobility (the paper's model in §3.2).
//
// At each time step, device m jumps to a uniformly random *other* edge with
// probability P_m and stays put otherwise. The global mobility P is the
// mean of P_m over devices — exactly the quantity swept in Fig. 7. The
// transition draw is keyed on (seed, device, step) so runs are reproducible
// and independent of evaluation order — which also makes advance() free to
// shard over a thread pool in fixed device ranges: each shard walks its own
// slice of the SoA (keys, probabilities, assignment) arrays and emits a
// local mover list, concatenated in shard order into one ascending delta.
//
// Each shard walks its range in blocks of 1024 devices, in two passes. The
// gate "does device m move?" is the first uniform() of its (m, step)
// stream, which parallel::first_uniform() computes from the stream key
// alone, so pass 1 is a branch-free, vectorizable loop writing one gate
// byte per device. Pass 2 replays the full stream only for the devices
// through the gate (a fraction P of the fleet): it discards the gate draw
// and picks the destination. The draws are exactly those of the one-pass
// loop, so every assignment is bitwise unchanged (pinned by the MarkovGate
// oracle in mobility_parallel_test).
#pragma once

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

class MarkovMobility final : public MobilityModel {
 public:
  /// Uniform move probability P for all devices.
  MarkovMobility(std::vector<std::size_t> initial_assignment,
                 std::size_t num_edges, double move_probability,
                 std::uint64_t seed);

  /// Heterogeneous per-device probabilities P_m (global P is their mean).
  /// An empty vector means P_m = 0 for every device (no movement).
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

 private:
  /// Normalizes move_prob_ (empty -> all-zero, fixing the latent OOB read
  /// in advance()), rebuilds the cached per-device stream keys, and
  /// recomputes the cached global mobility.
  void finalize_probabilities();
  /// Serial two-pass transition loop over devices [lo, hi), appending
  /// movers in ascending id order. Thread-safe across disjoint ranges: each
  /// device draws from its own (device, step) stream and writes only its
  /// own current_ slot.
  void advance_range(std::size_t lo, std::size_t hi,
                     std::vector<std::size_t>& movers);
  /// Pass 2 for one device through the gate: replays its stream past the
  /// gate draw, moves it per the topology and records it if it moved.
  void move_device(std::size_t m, std::vector<std::size_t>& movers);
  std::size_t shard_count(std::size_t devices) const;

  std::vector<std::size_t> initial_;
  std::vector<std::size_t> current_;
  std::size_t num_edges_;
  std::vector<double> move_prob_;
  parallel::StreamRng streams_;
  /// hash_combine(seed, device), the step-independent half of each
  /// device's stream key — advance() finishes it with one combine.
  std::vector<std::uint64_t> device_keys_;
  std::vector<std::size_t> movers_;
  std::vector<std::vector<std::size_t>> shard_movers_;
  parallel::ThreadPool* pool_ = nullptr;
  double global_mobility_ = 0.0;
  std::size_t step_ = 0;
  MoveTopology topology_ = MoveTopology::kUniform;
  double home_bias_ = 0.5;
};

}  // namespace middlefl::mobility
