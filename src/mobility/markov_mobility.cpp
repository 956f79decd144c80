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

template <MoveTopology kTopology>
void MarkovMobility::advance_shard(std::size_t s, std::size_t lo,
                                   std::size_t hi,
                                   std::vector<std::size_t>& movers) {
  // One loop per topology, with the generator and every table in locals
  // and no out-of-line call per mover, so the walk's state stays in
  // registers as far as they reach; the walk is bound by memory stalls.
  parallel::Xoshiro256 rng = streams_.stream(step_, s);
  std::size_t* const current = current_.data();
  const EdgeId* const home = initial_.data();
  const double* const prob = move_prob_.empty() ? nullptr : move_prob_.data();
  const double* const survival = survival_.data();
  const std::size_t* const guide = guide_.data();
  const std::size_t last = survival_.size() - 1;
  const std::size_t edges = num_edges_;
  const double p_max = p_max_;
  const double home_bias = home_bias_;
  const bool every_device = p_max >= 1.0;
  for (std::size_t m = lo;; ++m) {
    if (!every_device) {
      // P(gap >= g) = (1 - P_max)^g = survival[g], and P(u < survival[g])
      // is the same, so the gap is the number of g >= 1 with
      // survival[g] > u (a prefix, since the table falls). All of them
      // means a gap past the end of any shard. The guide entry of u's
      // bucket is that count at the bucket's top, a lower bound; the scan
      // past it is usually empty.
      const double u = rng.uniform();
      std::size_t gap = guide[static_cast<std::size_t>(u * kGuideBuckets)];
      while (gap < last && survival[gap + 1] > u) ++gap;
      if (gap == last || gap >= hi - m) return;
      m += gap;
    } else if (m >= hi) {
      return;
    }
    // Candidates are about 1 / P_max devices apart at random strides,
    // which the hardware prefetcher does not follow; fetch the assignment
    // line a fixed distance ahead, never past the shard.
    if (hi - m > kPrefetchDevices) {
      __builtin_prefetch(current + m + kPrefetchDevices, 1);
    }
    if (prob != nullptr) {
      const double p = prob[m];
      if (p < p_max && !(rng.uniform() * p_max < p)) continue;
    }
    const std::size_t from = current[m];
    std::size_t to;
    if constexpr (kTopology == MoveTopology::kUniform) {
      // Teleport to a uniformly random other edge.
      to = rng.bounded(edges - 1);
      if (to >= from) ++to;
    } else {
      if (kTopology == MoveTopology::kHomeRing && from != home[m] &&
          rng.uniform() < home_bias) {
        to = home[m];  // commuter returns home
      } else {
        // The ring neighbours of an edge below `edges`, without a divide.
        const std::size_t clockwise = from + 1 == edges ? 0 : from + 1;
        const std::size_t counter = (from == 0 ? edges : from) - 1;
        to = rng.uniform() < 0.5 ? clockwise : counter;
      }
    }
    current[m] = to;
    if (to != from) movers.push_back(m);
  }
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
  // The topology switch runs once per shard, not once per mover.
  const auto walk = [&](std::size_t s, std::vector<std::size_t>& movers) {
    const auto [lo, hi] = bounds(s);
    switch (topology_) {
      case MoveTopology::kUniform:
        return advance_shard<MoveTopology::kUniform>(s, lo, hi, movers);
      case MoveTopology::kRing:
        return advance_shard<MoveTopology::kRing>(s, lo, hi, movers);
      case MoveTopology::kHomeRing:
        return advance_shard<MoveTopology::kHomeRing>(s, lo, hi, movers);
    }
  };
  if (shards == 1) {
    walk(0, movers_);
    return;
  }
  shard_movers_.resize(shards);
  parallel::parallel_for(pool_, 0, shards, [&](std::size_t s) {
    // Neighbouring shards run concurrently and their vector headers share
    // cache lines, so the walk appends through a local handle on the
    // shard's buffer and writes the header back once.
    std::vector<std::size_t> local = std::move(shard_movers_[s]);
    local.clear();
    walk(s, local);
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
