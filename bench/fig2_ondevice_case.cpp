// Figure 2 — the motivation case study for on-device model aggregation.
//
// Setup (§2, Question 2): two edges; every device holds exactly one class;
// edge 1 hosts classes {0..4}, edge 2 hosts {5..9}. After a warm-up, the
// devices with classes {3,4} move from edge 1 to edge 2 and those with
// {8,9} move the other way, so the class sets become {0,1,2,8,9} and
// {5,6,7,3,4}. Training continues for several steps, then all local models
// are averaged into a cloud model.
//
// Two methods are compared exactly as in the paper:
//   General — moved devices start local training from the downloaded edge
//             model;
//   A Case  — moved devices average the downloaded edge model with their
//             carried local model (plain 1/2-1/2).
//
// Output: per-class accuracy of the cloud model and of edge model 1 under
// both methods — the paper's signature is higher accuracy for "A Case" on
// edge 1's lost classes {5,6,7} (complementary knowledge carried by the
// arriving devices) and a slight drop on the newly arrived classes {3,4}.
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "comm/communicator.hpp"
#include "mobility/trace.hpp"

namespace {

using namespace middlefl;

struct CaseResult {
  std::vector<double> cloud_per_class;
  std::vector<double> edge1_per_class;
  double cloud_overall = 0.0;
  double edge1_overall = 0.0;
};

CaseResult run_case(bool on_device_aggregation,
                    const bench::BenchOptions& options,
                    std::size_t warmup_steps, std::size_t post_steps) {
  constexpr std::size_t kClasses = 10;
  constexpr std::size_t kDevicesPerClass = 5;
  constexpr std::size_t kDevices = kClasses * kDevicesPerClass;

  // Data: one-class devices (§2: "each device is assigned the samples of
  // only one class").
  auto cfg = data::task_config(data::TaskKind::kMnist,
                               options.paper ? 1.0 : 0.5);
  cfg.seed = parallel::hash_combine(cfg.seed, options.seed);
  const data::SyntheticGenerator generator(cfg);
  const auto train = generator.generate(options.paper ? 300 : 80, 1);
  const auto test = generator.generate(options.paper ? 100 : 40, 2);
  const auto partition = data::partition_single_class(
      train, kDevices, options.paper ? 200 : 60, options.seed + 3);

  // Mobility script: device d has class d % 10. Edge 0 hosts classes 0-4,
  // edge 1 hosts 5-9; at `warmup_steps` classes {3,4} and {8,9} swap.
  const auto edge_of_class = [](std::size_t cls, bool after_swap) {
    const bool originally_edge0 = cls <= 4;
    const bool swaps = cls == 3 || cls == 4 || cls == 8 || cls == 9;
    return (originally_edge0 != (after_swap && swaps)) ? 0u : 1u;
  };
  mobility::Trace trace(kDevices, 2);
  const std::size_t total_steps = warmup_steps + post_steps;
  for (std::size_t t = 0; t <= total_steps; ++t) {
    std::vector<std::size_t> assignment(kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
      assignment[d] = edge_of_class(d % kClasses, t > warmup_steps);
    }
    trace.append(assignment);
  }

  // Model/config (lr 0.001 as in §2's motivation experiments, 10 local SGD
  // steps per time step).
  nn::ModelSpec spec;
  spec.input_shape = tensor::Shape{cfg.channels, cfg.height, cfg.width};
  spec.num_classes = kClasses;
  if (options.paper) {
    spec.arch = nn::ModelArch::kCnn2;
    spec.hidden = 64;
  } else {
    spec.arch = nn::ModelArch::kMlp2;
    spec.hidden = 48;
  }

  core::SimulationConfig sim_cfg;
  sim_cfg.select_per_edge = kDevices / 2;  // every connected device trains
  sim_cfg.local_steps = 10;
  sim_cfg.cloud_interval = total_steps + 1;  // no cloud sync during the case
  sim_cfg.batch_size = 8;
  sim_cfg.total_steps = total_steps;
  sim_cfg.eval_every = total_steps;  // evaluate only at the end
  sim_cfg.eval_samples = 0;
  sim_cfg.seed = options.seed;

  core::AlgorithmSpec algorithm;
  algorithm.name = on_device_aggregation ? "A Case" : "General";
  algorithm.selection = std::make_unique<core::RandomSelection>();
  algorithm.on_move = on_device_aggregation
                          ? core::OnDeviceRule::kPlainAverage
                          : core::OnDeviceRule::kDownloadEdge;

  const optim::Sgd sgd({.learning_rate = options.paper ? 0.001 : 0.002,
                        .momentum = 0.9});
  core::Simulation sim(sim_cfg, spec, sgd, train, partition, test,
                       std::make_unique<mobility::TraceMobility>(trace),
                       std::move(algorithm));
  for (std::size_t t = 0; t < total_steps; ++t) sim.step();

  // "aggregate all local models as the cloud model" (§2).
  std::vector<comm::Contribution> locals;
  for (std::size_t d = 0; d < kDevices; ++d) {
    locals.push_back(comm::Contribution{
        sim.device(d).params(),
        static_cast<double>(sim.device(d).data_size())});
  }
  std::vector<float> cloud(sim.cloud_params().size());
  comm::InProcessCommunicator(nullptr).all_reduce(locals, cloud);

  CaseResult result;
  result.cloud_per_class = sim.evaluator().per_class_accuracy(cloud);
  result.cloud_overall = sim.evaluator().evaluate(cloud).accuracy;
  result.edge1_per_class =
      sim.evaluator().per_class_accuracy(sim.edge_params(0));
  result.edge1_overall =
      sim.evaluator().evaluate(sim.edge_params(0)).accuracy;
  return result;
}

int run(int argc, const char* const* argv) {
  bench::BenchOptions options;
  std::size_t warmup = 30;
  std::size_t post = 3;
  util::CliParser cli("fig2: per-class effect of on-device model aggregation");
  options.register_flags(cli);
  cli.add_flag("warmup", "time steps before the device swap", &warmup);
  cli.add_flag("post", "time steps after the device swap", &post);
  if (!cli.parse(argc, argv)) return 0;

  bench::print_banner("Figure 2: on-device aggregation case study", options);
  const auto general = run_case(false, options, warmup, post);
  const auto a_case = run_case(true, options, warmup, post);

  auto csv = bench::open_csv(options);
  csv->header({"model", "method", "class", "accuracy"});
  for (std::size_t c = 0; c < general.cloud_per_class.size(); ++c) {
    csv->add("cloud").add("General").add(c).add(general.cloud_per_class[c]);
    csv->end_row();
    csv->add("cloud").add("A Case").add(c).add(a_case.cloud_per_class[c]);
    csv->end_row();
    csv->add("edge1").add("General").add(c).add(general.edge1_per_class[c]);
    csv->end_row();
    csv->add("edge1").add("A Case").add(c).add(a_case.edge1_per_class[c]);
    csv->end_row();
  }

  std::cerr << std::fixed << std::setprecision(3);
  std::cerr << "cloud overall: General " << general.cloud_overall
            << "  A-Case " << a_case.cloud_overall << "\n";
  std::cerr << "edge1 overall: General " << general.edge1_overall
            << "  A-Case " << a_case.edge1_overall << "\n";
  std::cerr << "edge1 per class (General / A-Case):\n";
  for (std::size_t c = 0; c < general.edge1_per_class.size(); ++c) {
    std::cerr << "  class " << c << ": " << general.edge1_per_class[c]
              << " / " << a_case.edge1_per_class[c];
    if (c >= 5 && c <= 7) std::cerr << "   <- paper: A-Case higher";
    if (c == 3 || c == 4) std::cerr << "   <- paper: A-Case slightly lower";
    std::cerr << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
