#include "core/selection.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/similarity.hpp"
#include "core/similarity_cache.hpp"

namespace middlefl::core {
namespace {

/// Floyd's algorithm: min(k, count) distinct positions in [0, count),
/// ascending. k >= count takes every position without drawing; otherwise
/// exactly k bounded() draws, one per j in [count - k, count).
std::vector<std::size_t> floyd_positions(std::size_t count, std::size_t k,
                                         parallel::Xoshiro256& rng) {
  std::vector<std::size_t> picked;
  if (k >= count) {
    picked.resize(count);
    std::iota(picked.begin(), picked.end(), std::size_t{0});
    return picked;
  }
  picked.reserve(k);
  for (std::size_t j = count - k; j < count; ++j) {
    const std::size_t t = rng.bounded(j + 1);
    const auto at = std::lower_bound(picked.begin(), picked.end(), t);
    if (at != picked.end() && *at == t) {
      picked.push_back(j);  // every earlier pick is < j: still ascending
    } else {
      picked.insert(at, t);
    }
  }
  return picked;
}

}  // namespace

std::vector<std::size_t> top_k_by_score(std::span<const Candidate> candidates,
                                        const std::vector<double>& scores,
                                        std::size_t k,
                                        parallel::Xoshiro256& rng) {
  const std::uint64_t salt = rng();
  const std::size_t n = candidates.size();
  const std::size_t take = std::min(k, n);
  // (score desc, tie key asc) is a strict total order: hash_combine(salt,
  // .) is a bijection, so distinct ids get distinct keys (the position
  // only breaks ties between duplicate ids). The tie key is computed only
  // when scores tie.
  const auto tie_key = [&](std::size_t i) {
    return parallel::hash_combine(salt, candidates[i].device_id);
  };
  const auto before = [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    const std::uint64_t ka = tie_key(a);
    const std::uint64_t kb = tie_key(b);
    if (ka != kb) return ka < kb;
    return a < b;
  };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (take < n) {
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(take),
                     order.end(), before);
    order.resize(take);
  }
  std::sort(order.begin(), order.end(), before);
  std::vector<std::size_t> ids;
  ids.reserve(take);
  for (const std::size_t i : order) ids.push_back(candidates[i].device_id);
  return ids;
}

std::vector<double> score_selection_utilities(
    std::span<const Candidate> candidates, std::span<const float> cloud_params,
    const SelectionContext& context) {
  std::vector<double> scores(candidates.size(), 0.0);
  // Cache pass: collect the indices whose (device, cloud) version pair
  // missed; only those pay the fused sweep over the parameter vector.
  std::vector<std::size_t> misses;
  if (context.cache != nullptr) {
    misses.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      if (const auto cached = context.cache->lookup(
              c.device_id, c.params_version, context.cloud_version)) {
        scores[i] = *cached;
      } else {
        misses.push_back(i);
      }
    }
  } else {
    misses.resize(candidates.size());
    std::iota(misses.begin(), misses.end(), std::size_t{0});
  }

  for (const std::size_t i : misses) {
    scores[i] = selection_utility(cloud_params, candidates[i].local_params);
  }

  if (context.cache != nullptr) {
    for (const std::size_t i : misses) {
      const Candidate& c = candidates[i];
      context.cache->store(c.device_id, c.params_version,
                           context.cloud_version, scores[i]);
    }
  }
  return scores;
}

std::vector<std::size_t> SelectionStrategy::select_ids(
    std::span<const std::size_t> /*ids*/, std::size_t /*k*/,
    parallel::Xoshiro256& /*rng*/) const {
  throw std::logic_error("SelectionStrategy::select_ids: '" + name() +
                         "' reads candidate metadata; call select()");
}

std::vector<std::size_t> RandomSelection::select(
    std::span<const Candidate> candidates,
    std::span<const float> /*cloud_params*/, std::size_t k,
    parallel::Xoshiro256& rng, const SelectionContext& /*context*/) const {
  std::vector<std::size_t> ids = floyd_positions(candidates.size(), k, rng);
  for (std::size_t& id : ids) id = candidates[id].device_id;
  return ids;
}

std::vector<std::size_t> RandomSelection::select_ids(
    std::span<const std::size_t> ids, std::size_t k,
    parallel::Xoshiro256& rng) const {
  // The positions depend only on ids.size() and the draws, so this equals
  // select() over candidates carrying `ids` in order.
  std::vector<std::size_t> picked = floyd_positions(ids.size(), k, rng);
  for (std::size_t& p : picked) p = ids[p];
  return picked;
}

std::vector<std::size_t> StatUtilitySelection::select(
    std::span<const Candidate> candidates,
    std::span<const float> /*cloud_params*/, std::size_t k,
    parallel::Xoshiro256& rng, const SelectionContext& /*context*/) const {
  // Never-trained devices get a score above any finite utility so they are
  // explored first (Oort's exploration of fresh clients).
  double max_utility = 0.0;
  for (const auto& c : candidates) {
    if (c.stat_utility) max_utility = std::max(max_utility, *c.stat_utility);
  }
  std::vector<double> scores(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = candidates[i].stat_utility ? *candidates[i].stat_utility
                                           : max_utility + 1.0;
  }
  return top_k_by_score(candidates, scores, k, rng);
}

std::vector<std::size_t> SimilaritySelection::select(
    std::span<const Candidate> candidates,
    std::span<const float> cloud_params, std::size_t k,
    parallel::Xoshiro256& rng, const SelectionContext& context) const {
  std::vector<double> scores =
      score_selection_utilities(candidates, cloud_params, context);
  for (double& score : scores) {
    score = invert_ ? score : -score;  // Eq. 12: TOPK of -U
  }
  return top_k_by_score(candidates, scores, k, rng);
}

std::vector<std::size_t> HybridSelection::select(
    std::span<const Candidate> candidates,
    std::span<const float> cloud_params, std::size_t k,
    parallel::Xoshiro256& rng, const SelectionContext& context) const {
  double max_utility = 0.0;
  for (const auto& c : candidates) {
    if (c.stat_utility) max_utility = std::max(max_utility, *c.stat_utility);
  }
  const std::vector<double> utilities =
      score_selection_utilities(candidates, cloud_params, context);
  std::vector<double> scores(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& c = candidates[i];
    if (!c.stat_utility) {
      // Unexplored devices beat every explored one.
      scores[i] = (max_utility + 1.0) * 2.0;
      continue;
    }
    scores[i] = *c.stat_utility * (1.0 - utilities[i]);
  }
  return top_k_by_score(candidates, scores, k, rng);
}

}  // namespace middlefl::core
