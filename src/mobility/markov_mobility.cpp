#include "mobility/markov_mobility.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace middlefl::mobility {

std::string to_string(MoveTopology topology) {
  switch (topology) {
    case MoveTopology::kUniform: return "uniform";
    case MoveTopology::kRing: return "ring";
    case MoveTopology::kHomeRing: return "home-ring";
  }
  return "?";
}

MoveTopology parse_topology(const std::string& name) {
  if (name == "uniform") return MoveTopology::kUniform;
  if (name == "ring") return MoveTopology::kRing;
  if (name == "home-ring" || name == "home_ring" || name == "home") {
    return MoveTopology::kHomeRing;
  }
  throw std::invalid_argument("unknown topology '" + name +
                              "' (uniform|ring|home-ring)");
}

MarkovMobility::MarkovMobility(std::vector<std::size_t> initial_assignment,
                               std::size_t num_edges, double move_probability,
                               std::uint64_t seed)
    : MarkovMobility(std::move(initial_assignment), num_edges,
                     std::vector<double>{}, seed) {
  if (!(move_probability >= 0.0 && move_probability <= 1.0)) {
    throw std::invalid_argument("MarkovMobility: P must be in [0, 1]");
  }
  move_prob_.assign(current_.size(), move_probability);
  finalize_probabilities();
}

MarkovMobility::MarkovMobility(std::vector<std::size_t> initial_assignment,
                               std::size_t num_edges,
                               std::vector<double> move_probabilities,
                               std::uint64_t seed)
    : initial_(std::move(initial_assignment)),
      current_(initial_),
      num_edges_(num_edges),
      move_prob_(std::move(move_probabilities)),
      streams_(seed) {
  if (num_edges_ == 0) {
    throw std::invalid_argument("MarkovMobility: need at least one edge");
  }
  for (std::size_t e : initial_) {
    if (e >= num_edges_) {
      throw std::out_of_range("MarkovMobility: initial edge " +
                              std::to_string(e) + " out of range");
    }
  }
  if (!move_prob_.empty() && move_prob_.size() != initial_.size()) {
    throw std::invalid_argument(
        "MarkovMobility: per-device probability count mismatch");
  }
  for (double p : move_prob_) {
    if (!(p >= 0.0 && p <= 1.0)) {  // also rejects NaN
      throw std::invalid_argument("MarkovMobility: P_m must be in [0, 1]");
    }
  }
  finalize_probabilities();
}

void MarkovMobility::finalize_probabilities() {
  // An empty vector used to pass validation yet advance() indexed
  // move_prob_[m] unconditionally — normalize to explicit P = 0 so the
  // hot loop never has to branch on the degenerate shape.
  if (move_prob_.empty()) move_prob_.assign(initial_.size(), 0.0);
  if (device_keys_.size() != initial_.size()) {
    device_keys_.resize(initial_.size());
    for (std::size_t m = 0; m < device_keys_.size(); ++m) {
      device_keys_[m] = parallel::hash_combine(streams_.root_seed(), m);
    }
  }
  global_mobility_ =
      move_prob_.empty()
          ? 0.0
          : std::accumulate(move_prob_.begin(), move_prob_.end(), 0.0) /
                static_cast<double>(move_prob_.size());
}

void MarkovMobility::set_topology(MoveTopology topology, double home_bias) {
  if (home_bias < 0.0 || home_bias > 1.0) {
    throw std::invalid_argument("MarkovMobility: home_bias must be in [0, 1]");
  }
  topology_ = topology;
  home_bias_ = home_bias;
}

void MarkovMobility::advance_range(std::size_t lo, std::size_t hi,
                                   std::vector<std::size_t>& movers) {
  constexpr std::size_t kBlock = 1024;
  const std::uint64_t step_mix = parallel::combine_mix(step_);
  std::uint8_t gate[kBlock];
  for (std::size_t base = lo; base < hi; base += kBlock) {
    const std::size_t len = std::min(kBlock, hi - base);
    const std::uint64_t* keys = device_keys_.data() + base;
    const double* probs = move_prob_.data() + base;
    // Pass 1, branch-free: the gate draw is the first uniform() of the
    // device's (device, step) stream. uniform() lands in [0, 1), so P = 0
    // never passes.
    for (std::size_t i = 0; i < len; ++i) {
      gate[i] = parallel::first_uniform(
                    parallel::hash_combine_mixed(keys[i], step_mix)) < probs[i];
    }
    // Pass 2: only devices through the gate replay their full stream.
    for (std::size_t i = 0; i < len; ++i) {
      if (gate[i]) move_device(base + i, movers);
    }
  }
}

void MarkovMobility::move_device(std::size_t m,
                                 std::vector<std::size_t>& movers) {
  parallel::Xoshiro256 rng(parallel::hash_combine(device_keys_[m], step_));
  rng.uniform();  // the gate draw pass 1 already consumed
  const std::size_t before = current_[m];
  switch (topology_) {
    case MoveTopology::kUniform: {
      // Teleport to a uniformly random other edge.
      std::size_t target = rng.bounded(num_edges_ - 1);
      if (target >= current_[m]) ++target;
      current_[m] = target;
      break;
    }
    case MoveTopology::kRing: {
      const bool clockwise = rng.uniform() < 0.5;
      current_[m] = clockwise ? (current_[m] + 1) % num_edges_
                              : (current_[m] + num_edges_ - 1) % num_edges_;
      break;
    }
    case MoveTopology::kHomeRing: {
      if (current_[m] != initial_[m] && rng.uniform() < home_bias_) {
        current_[m] = initial_[m];  // commuter returns home
      } else {
        const bool clockwise = rng.uniform() < 0.5;
        current_[m] = clockwise ? (current_[m] + 1) % num_edges_
                                : (current_[m] + num_edges_ - 1) % num_edges_;
      }
      break;
    }
  }
  if (current_[m] != before) movers.push_back(m);
}

std::size_t MarkovMobility::shard_count(std::size_t devices) const {
  // Boundaries depend only on the fleet size — never on the pool — so the
  // shard-local mover lists concatenate into the same ascending order at
  // any worker count. The grain keeps dispatch overhead off small fleets.
  constexpr std::size_t kGrain = 16384;
  const std::size_t by_grain = (devices + kGrain - 1) / kGrain;
  return std::clamp<std::size_t>(by_grain, 1, 64);
}

void MarkovMobility::advance() {
  ++step_;
  movers_.clear();
  if (num_edges_ == 1) return;  // nowhere to go
  const std::size_t devices = current_.size();
  const std::size_t shards = shard_count(devices);
  if (pool_ == nullptr || pool_->size() <= 1 || shards <= 1 ||
      parallel::ThreadPool::in_worker()) {
    advance_range(0, devices, movers_);
    return;
  }
  const std::size_t per = (devices + shards - 1) / shards;
  shard_movers_.resize(shards);
  parallel::parallel_for(*pool_, 0, shards, [&](std::size_t s) {
    auto& local = shard_movers_[s];
    local.clear();
    const std::size_t lo = s * per;
    advance_range(lo, std::min(devices, lo + per), local);
  });
  for (const auto& local : shard_movers_) {
    movers_.insert(movers_.end(), local.begin(), local.end());
  }
}

void MarkovMobility::reset() {
  current_ = initial_;
  movers_.clear();
  step_ = 0;
}

}  // namespace middlefl::mobility
