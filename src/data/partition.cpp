#include "data/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "parallel/rng.hpp"

namespace middlefl::data {
namespace {

using parallel::Xoshiro256;

void check_args(const Dataset& dataset, std::size_t num_devices) {
  if (num_devices == 0) {
    throw std::invalid_argument("partition: num_devices must be positive");
  }
  if (dataset.size() == 0) {
    throw std::invalid_argument("partition: empty dataset");
  }
}

/// Fisher-Yates shuffle on Xoshiro256::bounded: the permutation depends on
/// this file and the generator alone, not on a standard library's
/// std::shuffle algorithm.
void fisher_yates(std::vector<std::size_t>& values, Xoshiro256& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.bounded(i)]);
  }
}

/// Marsaglia-Tsang gamma(shape, 1) sampler; handles shape < 1 via the
/// boosting identity gamma(a) = gamma(a+1) * U^(1/a).
double sample_gamma(double shape, Xoshiro256& rng) {
  if (shape < 1.0) {
    const double u = rng.uniform();
    return sample_gamma(shape + 1.0, rng) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = rng.normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

}  // namespace

std::size_t Partition::prune_empty() {
  std::size_t kept = 0;
  for (std::size_t m = 0; m < device_indices.size(); ++m) {
    if (device_indices[m].empty()) continue;
    if (kept != m) {
      device_indices[kept] = std::move(device_indices[m]);
      major_class[kept] = major_class[m];
    }
    ++kept;
  }
  const std::size_t dropped = device_indices.size() - kept;
  device_indices.resize(kept);
  major_class.resize(kept);
  return dropped;
}

Partition partition_major_class(const Dataset& dataset,
                                std::size_t num_devices,
                                std::size_t samples_per_device,
                                double major_fraction, std::uint64_t seed) {
  check_args(dataset, num_devices);
  if (major_fraction < 0.0 || major_fraction > 1.0) {
    throw std::invalid_argument("partition_major_class: major_fraction must be in [0,1]");
  }
  if (samples_per_device == 0) {
    throw std::invalid_argument("partition_major_class: samples_per_device must be positive");
  }
  const std::size_t classes = dataset.num_classes();
  std::vector<std::vector<std::size_t>> by_class(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    by_class[c] = dataset.indices_of_class(static_cast<std::int32_t>(c));
    if (by_class[c].empty()) {
      throw std::invalid_argument("partition_major_class: class " +
                                  std::to_string(c) + " has no samples");
    }
  }

  Partition out;
  out.device_indices.resize(num_devices);
  out.major_class.resize(num_devices);
  parallel::StreamRng streams(seed);
  for (std::size_t m = 0; m < num_devices; ++m) {
    auto rng = streams.stream(m);
    const std::size_t major = m % classes;
    out.major_class[m] = static_cast<std::int32_t>(major);
    auto& mine = out.device_indices[m];
    mine.reserve(samples_per_device);
    for (std::size_t i = 0; i < samples_per_device; ++i) {
      std::size_t cls = major;
      if (classes > 1 && rng.uniform() >= major_fraction) {
        // Uniform over the other classes.
        cls = rng.bounded(classes - 1);
        if (cls >= major) ++cls;
      }
      const auto& pool = by_class[cls];
      mine.push_back(pool[rng.bounded(pool.size())]);
    }
  }
  return out;
}

Partition partition_single_class(const Dataset& dataset,
                                 std::size_t num_devices,
                                 std::size_t samples_per_device,
                                 std::uint64_t seed) {
  return partition_major_class(dataset, num_devices, samples_per_device,
                               /*major_fraction=*/1.0, seed);
}

Partition partition_dirichlet(const Dataset& dataset, std::size_t num_devices,
                              double alpha, std::uint64_t seed) {
  check_args(dataset, num_devices);
  if (alpha <= 0.0) {
    throw std::invalid_argument("partition_dirichlet: alpha must be positive");
  }
  const std::size_t classes = dataset.num_classes();
  Partition out;
  out.device_indices.resize(num_devices);
  out.major_class.assign(num_devices, -1);

  parallel::StreamRng streams(seed);
  for (std::size_t c = 0; c < classes; ++c) {
    auto indices = dataset.indices_of_class(static_cast<std::int32_t>(c));
    auto rng = streams.stream(c);
    fisher_yates(indices, rng);

    // Dirichlet proportions over devices for this class.
    std::vector<double> props(num_devices);
    double total = 0.0;
    for (double& p : props) {
      p = sample_gamma(alpha, rng);
      total += p;
    }
    // Cut the shuffled list at the cumulative proportions.
    std::size_t start = 0;
    double cumulative = 0.0;
    for (std::size_t m = 0; m < num_devices; ++m) {
      cumulative += props[m] / total;
      const std::size_t end =
          m + 1 == num_devices
              ? indices.size()
              : std::min(indices.size(),
                         static_cast<std::size_t>(std::llround(
                             cumulative * static_cast<double>(indices.size()))));
      for (std::size_t i = start; i < end; ++i) {
        out.device_indices[m].push_back(indices[i]);
      }
      start = std::max(start, end);
    }
  }

  // Record each device's empirical major class (useful for edge grouping).
  for (std::size_t m = 0; m < num_devices; ++m) {
    std::vector<std::size_t> hist(classes, 0);
    for (std::size_t i : out.device_indices[m]) {
      ++hist[static_cast<std::size_t>(dataset.label(i))];
    }
    const auto it = std::max_element(hist.begin(), hist.end());
    if (*it > 0) {
      out.major_class[m] = static_cast<std::int32_t>(it - hist.begin());
    }
  }
  return out;
}

Partition partition_iid(const Dataset& dataset, std::size_t num_devices,
                        std::uint64_t seed) {
  check_args(dataset, num_devices);
  std::vector<std::size_t> indices(dataset.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  Xoshiro256 rng(seed);
  fisher_yates(indices, rng);

  Partition out;
  out.device_indices.resize(num_devices);
  out.major_class.assign(num_devices, -1);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    out.device_indices[i % num_devices].push_back(indices[i]);
  }
  return out;
}

Partition partition_fleet_window(const Dataset& dataset,
                                 std::size_t num_devices,
                                 std::size_t samples_per_device) {
  if (num_devices == 0) {
    throw std::invalid_argument(
        "partition_fleet_window: num_devices must be positive");
  }
  if (samples_per_device == 0) {
    throw std::invalid_argument(
        "partition_fleet_window: samples_per_device must be positive");
  }
  if (dataset.size() == 0) {
    throw std::invalid_argument("partition_fleet_window: empty dataset");
  }
  Partition out;
  out.window_devices = num_devices;
  out.window_size = samples_per_device;
  return out;
}

std::vector<std::size_t> assign_edges_by_major_class(
    const Partition& partition, std::size_t num_edges,
    std::size_t num_classes) {
  if (num_edges == 0) {
    throw std::invalid_argument("assign_edges_by_major_class: num_edges must be positive");
  }
  std::vector<std::size_t> edge_of(partition.num_devices());
  std::size_t fallback = 0;
  for (std::size_t m = 0; m < partition.num_devices(); ++m) {
    const std::int32_t major = partition.major_class[m];
    if (major < 0) {
      edge_of[m] = fallback++ % num_edges;
      continue;
    }
    // Contiguous class ranges per edge: edge e covers classes
    // [e*C/E, (e+1)*C/E).
    edge_of[m] = std::min(
        num_edges - 1,
        static_cast<std::size_t>(major) * num_edges / num_classes);
  }
  return edge_of;
}

std::vector<std::size_t> assign_edges_uniform(std::size_t num_devices,
                                              std::size_t num_edges,
                                              std::uint64_t seed) {
  if (num_edges == 0) {
    throw std::invalid_argument("assign_edges_uniform: num_edges must be positive");
  }
  Xoshiro256 rng(seed);
  std::vector<std::size_t> edge_of(num_devices);
  for (auto& e : edge_of) e = rng.bounded(num_edges);
  return edge_of;
}

}  // namespace middlefl::data
