#include "config/scenario_build.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "mobility/markov_mobility.hpp"
#include "mobility/trace.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "parallel/rng.hpp"

namespace middlefl::config {
namespace {

data::Partition make_partition(const DataSpec& d, const data::Dataset& train,
                               std::uint64_t seed) {
  if (d.partition == "major-class") {
    return data::partition_major_class(train, d.devices, d.samples_per_device,
                                       d.major_fraction, seed + 11);
  }
  if (d.partition == "single-class") {
    return data::partition_single_class(train, d.devices,
                                        d.samples_per_device, seed + 11);
  }
  if (d.partition == "iid") {
    return data::partition_iid(train, d.devices, seed + 11);
  }
  if (d.partition == "dirichlet") {
    return data::partition_dirichlet(train, d.devices, d.dirichlet_alpha,
                                     seed + 11);
  }
  if (d.partition == "fleet-window") {
    return data::partition_fleet_window(train, d.devices,
                                        d.samples_per_device);
  }
  throw std::invalid_argument("unknown partition scheme '" + d.partition +
                              "'");
}

std::unique_ptr<optim::Optimizer> make_optimizer(const OptimizerSpec& o) {
  if (o.kind == "adam") {
    return std::make_unique<optim::Adam>(
        optim::AdamConfig{.learning_rate = o.learning_rate,
                          .beta1 = o.beta1,
                          .beta2 = o.beta2,
                          .epsilon = o.epsilon,
                          .weight_decay = o.weight_decay});
  }
  if (o.kind == "sgd") {
    return std::make_unique<optim::Sgd>(
        optim::SgdConfig{.learning_rate = o.learning_rate,
                         .momentum = o.momentum,
                         .weight_decay = o.weight_decay});
  }
  throw std::invalid_argument("unknown optimizer '" + o.kind + "'");
}

}  // namespace

BuiltScenario build_scenario(const ScenarioSpec& spec) {
  BuiltScenario built;
  built.spec = spec;

  // Same seeding chain as the hand-built benches: the task preset's base seed
  // mixed with the experiment seed, +11 for the partition draw.
  built.data_config =
      data::task_config(data::parse_task(spec.data.task), spec.data.scale);
  built.data_config.seed =
      parallel::hash_combine(built.data_config.seed, spec.sim.seed);
  const data::SyntheticGenerator generator(built.data_config);
  built.train = generator.generate(spec.data.train_per_class, 1);
  built.test = generator.generate(spec.data.test_per_class, 2);
  built.partition = make_partition(spec.data, built.train, spec.sim.seed);

  if (spec.data.edge_assignment == "by-major-class") {
    built.homes = data::assign_edges_by_major_class(
        built.partition, spec.edges, built.data_config.num_classes);
  } else if (spec.data.edge_assignment == "uniform") {
    built.homes = data::assign_edges_uniform(built.partition.num_devices(),
                                             spec.edges, spec.sim.seed);
  } else {
    throw std::invalid_argument("unknown edge assignment '" +
                                spec.data.edge_assignment + "'");
  }

  built.model = spec.model;
  built.model.input_shape =
      tensor::Shape{built.data_config.channels, built.data_config.height,
                    built.data_config.width};
  built.model.num_classes = built.data_config.num_classes;

  built.optimizer = make_optimizer(spec.optimizer);
  return built;
}

optim::LrSchedule make_lr_schedule(const LrScheduleSpec& spec,
                                   std::size_t local_steps) {
  // Each check names the key: a bad value otherwise trains to NaN.
  const auto require = [](bool ok, const char* key, const char* rule,
                          double value) {
    if (!ok) {
      throw std::invalid_argument(std::string("lr_schedule.") + key +
                                  " must be " + rule + ", got " +
                                  std::to_string(value));
    }
  };
  const auto require_base_lr = [&] {
    require(std::isfinite(spec.base_lr) && spec.base_lr > 0.0, "base_lr",
            "finite and positive", spec.base_lr);
  };
  if (spec.kind == "default") return {};
  if (spec.kind == "constant") {
    require_base_lr();
    return optim::constant_lr(spec.base_lr);
  }
  if (spec.kind == "theorem1") {
    require(std::isfinite(spec.mu) && spec.mu > 0.0, "mu",
            "finite and positive", spec.mu);
    require(std::isfinite(spec.beta) && spec.beta >= 0.0, "beta",
            "finite and non-negative", spec.beta);
    return optim::theorem1_lr(spec.mu, spec.beta, local_steps);
  }
  throw std::invalid_argument("unknown lr schedule '" + spec.kind + "'");
}

std::unique_ptr<mobility::MobilityModel> make_mobility(
    const ScenarioSpec& spec, const std::vector<std::size_t>& homes,
    std::uint64_t extra_seed) {
  const std::uint64_t seed = spec.sim.seed + 101 + extra_seed;
  if (spec.mobility.model == "markov") {
    auto model = std::make_unique<mobility::MarkovMobility>(
        homes, spec.edges, spec.mobility.switch_prob, seed);
    model->set_topology(mobility::parse_topology(spec.mobility.topology),
                        spec.mobility.home_bias);
    return model;
  }
  if (spec.mobility.model == "trace") {
    const std::string& path = spec.mobility.trace_file;
    if (path.empty()) {
      throw std::invalid_argument(
          "mobility.model 'trace' requires mobility.trace_file");
    }
    mobility::Trace trace = mobility::Trace::load_file(path);
    // A trace sized for another topology would silently run it instead.
    const auto require_match = [&path](const char* header_key,
                                       std::size_t traced,
                                       const char* spec_key,
                                       std::size_t wanted) {
      if (traced != wanted) {
        throw std::invalid_argument(
            "mobility.trace_file '" + path + "' has " + header_key + "=" +
            std::to_string(traced) + " but the spec has " + spec_key + " " +
            std::to_string(wanted));
      }
    };
    require_match("edges", trace.num_edges(), "edges", spec.edges);
    require_match("devices", trace.num_devices(), "data.devices",
                  spec.data.devices);
    return std::make_unique<mobility::TraceMobility>(std::move(trace));
  }
  throw std::invalid_argument("unknown mobility model '" +
                              spec.mobility.model + "'");
}

std::unique_ptr<core::Simulation> make_simulation(
    const BuiltScenario& built) {
  core::SimulationConfig cfg = built.spec.sim;
  cfg.lr_schedule =
      make_lr_schedule(built.spec.lr_schedule, cfg.local_steps);
  return std::make_unique<core::Simulation>(
      cfg, built.model, *built.optimizer, built.train, built.partition,
      built.test, make_mobility(built.spec, built.homes),
      core::make_algorithm(built.spec.algorithm));
}

}  // namespace middlefl::config
