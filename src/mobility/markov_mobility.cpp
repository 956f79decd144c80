#include "mobility/markov_mobility.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

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
  p_max_ = move_probability;
  finalize_probabilities();
}

MarkovMobility::MarkovMobility(std::vector<std::size_t> initial_assignment,
                               std::size_t num_edges,
                               std::vector<double> move_probabilities,
                               std::uint64_t seed)
    : current_(std::move(initial_assignment)),
      num_edges_(num_edges),
      move_prob_(std::move(move_probabilities)),
      streams_(seed) {
  if (num_edges_ == 0) {
    throw std::invalid_argument("MarkovMobility: need at least one edge");
  }
  if (num_edges_ > kMaxEdges) {
    throw std::invalid_argument(
        "MarkovMobility: " + std::to_string(num_edges_) + " edges past the " +
        std::to_string(kMaxEdges) + " a home edge can name");
  }
  // The home map keeps 2-byte ids; every edge fits after the check above.
  initial_.reserve(current_.size());
  for (const std::size_t e : current_) {
    if (e >= num_edges_) {
      throw std::out_of_range("MarkovMobility: initial edge " +
                              std::to_string(e) + " out of range");
    }
    initial_.push_back(static_cast<EdgeId>(e));
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
  // A fleet sharing one P keeps no per-device vector: the walk then never
  // loads P_m, and 1M devices save 8 MB. An empty input vector means
  // P = 0 everywhere.
  if (!move_prob_.empty()) {
    p_max_ = *std::max_element(move_prob_.begin(), move_prob_.end());
    if (std::all_of(move_prob_.begin(), move_prob_.end(),
                    [&](double p) { return p == p_max_; })) {
      move_prob_ = {};
    }
  }
  global_mobility_ =
      !move_prob_.empty()
          ? std::accumulate(move_prob_.begin(), move_prob_.end(), 0.0) /
                static_cast<double>(move_prob_.size())
          : initial_.empty() ? 0.0 : p_max_;
  survival_.clear();
  guide_.clear();
  if (p_max_ <= 0.0 || p_max_ >= 1.0) return;
  // A gap of a whole shard length ends the walk of any shard, so the table
  // stops there; it also stops once (1 - P_max)^g <= 2^-53, the smallest
  // nonzero uniform draw.
  const std::size_t devices = initial_.size();
  const std::size_t shards = shard_count(devices);
  const std::size_t shard_length = (devices + shards - 1) / shards;
  const double stay = 1.0 - p_max_;
  double survival = 1.0;
  survival_.push_back(survival);
  while (survival_.size() <= shard_length && survival > 0x1.0p-53) {
    survival *= stay;
    survival_.push_back(survival);
  }
  // guide_[b]: the number of g >= 1 with survival_[g] > u for the largest
  // draw u in bucket b, [b, b + 1) / kGuideBuckets.
  guide_.resize(kGuideBuckets);
  std::size_t above = survival_.size() - 1;
  for (std::size_t b = 0; b < kGuideBuckets; ++b) {
    const double top = static_cast<double>(b + 1) / kGuideBuckets - 0x1.0p-53;
    while (above > 0 && !(survival_[above] > top)) --above;
    guide_[b] = above;
  }
}

void MarkovMobility::set_topology(MoveTopology topology, double home_bias) {
  if (home_bias < 0.0 || home_bias > 1.0) {
    throw std::invalid_argument("MarkovMobility: home_bias must be in [0, 1]");
  }
  topology_ = topology;
  home_bias_ = home_bias;
}

std::size_t MarkovMobility::next_gap(
    parallel::Xoshiro256& rng) const noexcept {
  // P(gap >= g) = (1 - P_max)^g = survival_[g], and P(u < survival_[g])
  // is the same, so the gap is the number of g >= 1 with survival_[g] > u
  // (a prefix, since the table falls). All of them means a gap past the
  // end of any shard. The guide entry of u's bucket is that count at the
  // bucket's top, a lower bound; the scan past it is usually empty.
  const double u = rng.uniform();
  const std::size_t last = survival_.size() - 1;
  std::size_t above = guide_[static_cast<std::size_t>(u * kGuideBuckets)];
  while (above < last && survival_[above + 1] > u) ++above;
  return above == last ? kNoCandidate : above;
}

void MarkovMobility::advance_shard(std::size_t s, std::size_t lo,
                                   std::size_t hi,
                                   std::vector<std::size_t>& movers) {
  parallel::Xoshiro256 rng = streams_.stream(step_, s);
  const bool every_device = p_max_ >= 1.0;
  for (std::size_t m = lo;; ++m) {
    if (!every_device) {
      const std::size_t gap = next_gap(rng);
      if (gap == kNoCandidate || gap >= hi - m) return;
      m += gap;
    } else if (m >= hi) {
      return;
    }
    if (!move_prob_.empty()) {
      const double p = move_prob_[m];
      if (p < p_max_ && !(rng.uniform() * p_max_ < p)) continue;
    }
    move_device(m, rng, movers);
  }
}

void MarkovMobility::move_device(std::size_t m, parallel::Xoshiro256& rng,
                                 std::vector<std::size_t>& movers) {
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

std::size_t MarkovMobility::shard_count(std::size_t devices) noexcept {
  // Boundaries depend only on the fleet size — never on the pool — so the
  // shard streams and the concatenated mover list are the same at any
  // worker count. The grain keeps dispatch overhead off small fleets.
  constexpr std::size_t kGrain = 16384;
  const std::size_t by_grain = (devices + kGrain - 1) / kGrain;
  return std::clamp<std::size_t>(by_grain, 1, 64);
}

void MarkovMobility::advance() {
  ++step_;
  movers_.clear();
  const std::size_t devices = current_.size();
  if (num_edges_ == 1 || p_max_ <= 0.0 || devices == 0) return;  // no moves
  const std::size_t shards = shard_count(devices);
  const std::size_t per = (devices + shards - 1) / shards;
  const auto bounds = [&](std::size_t s) {
    return std::pair{std::min(devices, s * per),
                     std::min(devices, (s + 1) * per)};
  };
  if (shards == 1) {
    advance_shard(0, 0, devices, movers_);
    return;
  }
  shard_movers_.resize(shards);
  parallel::parallel_for(pool_, 0, shards, [&](std::size_t s) {
    // Neighbouring shards run concurrently and their vector headers share
    // cache lines, so the walk appends through a local handle on the
    // shard's buffer and writes the header back once.
    std::vector<std::size_t> local = std::move(shard_movers_[s]);
    local.clear();
    const auto [lo, hi] = bounds(s);
    advance_shard(s, lo, hi, local);
    shard_movers_[s] = std::move(local);
  });
  for (const auto& local : shard_movers_) {
    movers_.insert(movers_.end(), local.begin(), local.end());
  }
}

void MarkovMobility::reset() {
  current_.assign(initial_.begin(), initial_.end());
  movers_.clear();
  step_ = 0;
}

}  // namespace middlefl::mobility
