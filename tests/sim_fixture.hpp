// Shared helpers for tests: small, fast Simulation instances, and stepping
// a run while keeping its per-step records.
#pragma once

#include <memory>
#include <vector>

#include "core/simulation.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "mobility/markov_mobility.hpp"
#include "nn/model_factory.hpp"
#include "optim/sgd.hpp"

namespace middlefl::testing {

struct SimBundle {
  data::Dataset train;
  data::Dataset test;
  data::Partition partition;
  nn::ModelSpec model_spec;
  core::SimulationConfig cfg;
  std::vector<std::size_t> initial_edges;
  std::size_t num_edges = 3;
  double mobility_p = 0.5;
  std::uint64_t seed = 42;

  /// `side` is the height and width of each synthetic 1-channel image.
  SimBundle(std::size_t classes = 4, std::size_t devices = 12,
            std::size_t edges = 3, std::size_t side = 6)
      : train(make_data(classes, 60, 0, side)),
        test(make_data(classes, 25, 1, side)),
        partition(data::partition_major_class(train, devices, 60, 0.8, 7)),
        num_edges(edges) {
    initial_edges =
        data::assign_edges_by_major_class(partition, edges, classes);

    model_spec.arch = nn::ModelArch::kMlp;
    model_spec.input_shape = tensor::Shape{1, side, side};
    model_spec.num_classes = classes;
    model_spec.hidden = 16;

    cfg.select_per_edge = 2;
    cfg.local_steps = 2;
    cfg.cloud_interval = 5;
    cfg.batch_size = 8;
    cfg.total_steps = 20;
    cfg.eval_every = 5;
    cfg.eval_samples = 0;  // tiny test set: use all of it
    cfg.seed = seed;
    cfg.parallel_devices = false;  // single-threaded default for tests
  }

  static data::Dataset make_data(std::size_t classes, std::size_t per_class,
                                 std::uint64_t salt, std::size_t side = 6) {
    data::SyntheticConfig dcfg;
    dcfg.num_classes = classes;
    dcfg.height = side;
    dcfg.width = side;
    dcfg.noise_std = 0.2f;
    dcfg.seed = 5;
    return data::SyntheticGenerator(dcfg).generate(per_class, salt);
  }

  std::unique_ptr<core::Simulation> make(core::Algorithm algorithm) const {
    auto mobility = std::make_unique<mobility::MarkovMobility>(
        initial_edges, num_edges, mobility_p, seed + 1);
    const optim::Sgd sgd(
        {.learning_rate = 0.05, .momentum = 0.9, .weight_decay = 0.0});
    return std::make_unique<core::Simulation>(
        cfg, model_spec, sgd, train, partition, test, std::move(mobility),
        core::make_algorithm(algorithm));
  }
};

/// Steps `sim` through the rest of its configured run (no evaluations)
/// and returns a copy of every step's record.
inline std::vector<obs::StepRecord> run_step_records(core::Simulation& sim) {
  std::vector<obs::StepRecord> records;
  while (sim.current_step() < sim.config().total_steps) {
    sim.step();
    records.push_back(sim.last_step());
  }
  return records;
}

/// The record's delta for one link.
inline const obs::LinkDeltaRecord& link_delta(const obs::StepRecord& record,
                                              transport::LinkKind kind) {
  return record.links[static_cast<std::size_t>(kind)];
}

/// Per-link sums of the records' deltas.
inline transport::LinkStats sum_link(
    const std::vector<obs::StepRecord>& records, transport::LinkKind kind) {
  transport::LinkStats sum;
  for (const obs::StepRecord& record : records) {
    const obs::LinkDeltaRecord& delta = link_delta(record, kind);
    sum += transport::LinkStats{delta.transfers, delta.dropped, delta.bytes};
  }
  return sum;
}

}  // namespace middlefl::testing
