// In-edge device selection strategies.
//
// Every time step each edge picks K of its currently-connected devices.
// MIDDLE's rule (Eq. 12) ranks candidates by -U(w_c, Delta_w_m): the devices
// whose accumulated update direction is LEAST similar to the global model
// hold the data the global model has learned least. Baselines use random
// selection (FedMes, HierFAVG) or the Oort statistical utility (OORT,
// Greedy, Ensemble).
//
// Similarity-based strategies score through a SelectionContext: scores hit
// the version-keyed SimilarityCache when neither the device nor the cloud
// moved since the last step, misses are computed with the fused one-pass
// Eq. 11 kernel (no Delta materialization, no allocation per candidate).
// Scoring runs on the calling thread: each edge chain already has its own
// pool worker. A candidate's value is identical whether it came from the
// cache or a recompute.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "parallel/rng.hpp"

namespace middlefl::core {

class SimilarityCache;

/// Per-candidate snapshot handed to a strategy. `local_params` aliases the
/// device's live parameter vector and must not be stored.
struct Candidate {
  std::size_t device_id = 0;
  double data_size = 0.0;
  /// Oort statistical utility; nullopt for never-trained devices, which
  /// strategies should prioritize for exploration.
  std::optional<double> stat_utility;
  std::span<const float> local_params;
  /// Device parameter version for the SimilarityCache key (0 when the
  /// caller does not track versions; harmless without a cache).
  std::uint64_t params_version = 0;
};

/// Optional acceleration state for select(). Default-constructed context =
/// no caching — the behavior tests exercise directly.
struct SelectionContext {
  /// Cloud parameter version paired with Candidate::params_version.
  std::uint64_t cloud_version = 0;
  /// Cache of Eq. 11 utilities; nullptr disables caching.
  SimilarityCache* cache = nullptr;
};

/// Eq. 11 utilities for all candidates, cache-aware. Exposed for reuse by
/// strategies and tests.
std::vector<double> score_selection_utilities(
    std::span<const Candidate> candidates, std::span<const float> cloud_params,
    const SelectionContext& context);

/// Top-k ids by descending score, best first (stream contract v2). Equal
/// scores break on the tie key hash_combine(salt, device_id), ascending,
/// where `salt` is the first draw of `rng` — the only draw this makes. So
/// ties break uniformly at random per (stream, device) with no shuffle and
/// no O(n) random draws. O(n + k log k): nth_element + sort over (score
/// desc, tie key asc); selection_test pins it against a full stable sort.
std::vector<std::size_t> top_k_by_score(std::span<const Candidate> candidates,
                                        const std::vector<double>& scores,
                                        std::size_t k,
                                        parallel::Xoshiro256& rng);

class SelectionStrategy {
 public:
  virtual ~SelectionStrategy() = default;

  virtual std::string name() const = 0;

  /// True when select() reads Candidate::local_params. Strategies that
  /// rank on metadata alone (random, Oort utility) override this to false
  /// so callers can skip reading device parameters and sizing the
  /// similarity cache — the lever that keeps selection O(1) per candidate
  /// at fleet scale.
  virtual bool needs_params() const noexcept { return true; }

  /// True when select() reads any Candidate field beyond device_id.
  /// Random selection ranks on nothing at all, so it overrides this to
  /// false and callers may hand it bare member ids through select_ids(),
  /// skipping the per-member device dereference and Candidate build — the
  /// second fleet-scale lever (a million-device edge pays O(K), not O(n),
  /// to pick K devices).
  virtual bool needs_metadata() const noexcept { return true; }

  /// Returns the ids of min(k, candidates.size()) devices. `cloud_params`
  /// is the current global model w_c (the proxy for w_c* in Eq. 11).
  /// Implementations must be deterministic given `rng` (the context only
  /// accelerates scoring, it never changes the result).
  virtual std::vector<std::size_t> select(
      std::span<const Candidate> candidates,
      std::span<const float> cloud_params, std::size_t k,
      parallel::Xoshiro256& rng,
      const SelectionContext& context = SelectionContext{}) const = 0;

  /// Metadata-free fast path: selects straight from member ids. Only
  /// meaningful when needs_metadata() is false; strategies overriding
  /// needs_metadata() must override this to return exactly the ids (and
  /// consume exactly the rng draws) select() would for id-only candidates.
  /// The default forbids the call so a mismatch fails loudly.
  ///
  /// Position contract: an id-only strategy chooses by position. Which
  /// positions it picks depends only on ids.size() and the rng, never on
  /// the id values, and they come back ascending, so the result is ids[p]
  /// for an ascending sequence of positions p. Simulation relies on this:
  /// it passes the ranks 0..count-1 and maps the returned ranks to device
  /// ids through EdgeMembership::at_ranks (which requires ascending ranks),
  /// yielding the same ids in the same order as passing the ascending
  /// member ids (pinned by membership_test).
  virtual std::vector<std::size_t> select_ids(std::span<const std::size_t> ids,
                                              std::size_t k,
                                              parallel::Xoshiro256& rng) const;
};

/// Uniform random K-subset (FedMes, HierFAVG), by Floyd's algorithm
/// (stream contract v2): K bounded() draws pick K distinct positions,
/// returned ascending; K >= count selects everyone without drawing. O(K)
/// draws however many candidates the edge holds.
class RandomSelection final : public SelectionStrategy {
 public:
  std::string name() const override { return "random"; }
  bool needs_params() const noexcept override { return false; }
  bool needs_metadata() const noexcept override { return false; }
  std::vector<std::size_t> select(
      std::span<const Candidate> candidates,
      std::span<const float> cloud_params, std::size_t k,
      parallel::Xoshiro256& rng,
      const SelectionContext& context = SelectionContext{}) const override;
  std::vector<std::size_t> select_ids(
      std::span<const std::size_t> ids, std::size_t k,
      parallel::Xoshiro256& rng) const override;
};

/// Top-K by Oort statistical utility; never-trained candidates rank first
/// in random order (exploration), ties broken randomly.
class StatUtilitySelection final : public SelectionStrategy {
 public:
  std::string name() const override { return "stat-utility"; }
  bool needs_params() const noexcept override { return false; }
  std::vector<std::size_t> select(
      std::span<const Candidate> candidates,
      std::span<const float> cloud_params, std::size_t k,
      parallel::Xoshiro256& rng,
      const SelectionContext& context = SelectionContext{}) const override;
};

/// MIDDLE's Eq. 12: TOPK of -U(w_c, w_m - w_c) — least-similar first. Set
/// `invert` for the ablation that selects the MOST similar devices instead.
class SimilaritySelection final : public SelectionStrategy {
 public:
  explicit SimilaritySelection(bool invert = false) : invert_(invert) {}
  std::string name() const override {
    return invert_ ? "most-similar (ablation)" : "least-similar (MIDDLE)";
  }
  std::vector<std::size_t> select(
      std::span<const Candidate> candidates,
      std::span<const float> cloud_params, std::size_t k,
      parallel::Xoshiro256& rng,
      const SelectionContext& context = SelectionContext{}) const override;

 private:
  bool invert_;
};

/// Extension beyond the paper: ranks by the PRODUCT of Oort's loss signal
/// and MIDDLE's dissimilarity signal — devices whose data is both
/// high-loss and unlike what the global model has absorbed. Never-trained
/// candidates rank first, as in StatUtilitySelection.
class HybridSelection final : public SelectionStrategy {
 public:
  std::string name() const override { return "hybrid (loss x dissimilarity)"; }
  std::vector<std::size_t> select(
      std::span<const Candidate> candidates,
      std::span<const float> cloud_params, std::size_t k,
      parallel::Xoshiro256& rng,
      const SelectionContext& context = SelectionContext{}) const override;
};

}  // namespace middlefl::core
