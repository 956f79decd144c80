// ScenarioSpec -> live simulator objects.
//
// build_scenario replicates, step for step, the hand-written construction
// sequence of the figure benches — the same derived seeds (hash_combine
// for the generator, +11 for the partition, +101 for mobility), the same
// generate() salt values, the same optimizer construction — so a
// config-built run is bitwise identical to the hand-built equivalent
// (pinned by config_test's
// ScenarioBuilder.MatchesHandConstructedSimulationBitwise).
//
// The data half (datasets, partition, homes, model spec, optimizer
// prototype) is built once and shared; make_simulation constructs a fresh
// mobility model and Simulation from it each call, so sweep cells and
// repeats can reuse one BuiltScenario.
#pragma once

#include <memory>

#include "config/scenario.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "mobility/mobility_model.hpp"
#include "optim/optimizer.hpp"

namespace middlefl::config {

struct BuiltScenario {
  ScenarioSpec spec;
  data::SyntheticConfig data_config;
  // Placeholder 2-class datasets (the Dataset invariant's minimum) until
  // build_scenario fills in the generated ones.
  data::Dataset train{data::Shape{}, 2};
  data::Dataset test{data::Shape{}, 2};
  data::Partition partition;
  /// Initial device->edge assignment (the Markov home edges).
  std::vector<std::size_t> homes;
  /// spec.model with input_shape/num_classes filled from the task preset.
  nn::ModelSpec model;
  std::unique_ptr<optim::Optimizer> optimizer;
};

/// Materializes the data-side of a spec (generator, partition, edge
/// clustering, model, optimizer prototype). Throws std::invalid_argument
/// on semantically bad specs (e.g. a trace mobility without a trace_file).
BuiltScenario build_scenario(const ScenarioSpec& spec);

/// Declarative schedule -> optim::LrSchedule. kind "default" returns an
/// empty function: the Simulation then installs its historical
/// constant-0.01 fallback, exactly as hand-built runs behave.
optim::LrSchedule make_lr_schedule(const LrScheduleSpec& spec,
                                   std::size_t local_steps);

/// Fresh mobility model per simulation, seeded from spec.sim.seed + 101
/// (the front ends' historical offset). `extra_seed` lets bench repeats
/// decorrelate (bench_common adds 7919 * repeat). A trace whose header
/// names other edge or device counts than spec.edges and data.devices
/// throws std::invalid_argument naming the file and both counts.
std::unique_ptr<mobility::MobilityModel> make_mobility(
    const ScenarioSpec& spec, const std::vector<std::size_t>& homes,
    std::uint64_t extra_seed = 0);

/// One runnable Simulation from a built scenario: fresh mobility, fresh
/// algorithm policy, lr_schedule installed into the config copy.
std::unique_ptr<core::Simulation> make_simulation(const BuiltScenario& built);

}  // namespace middlefl::config
