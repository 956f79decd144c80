// middlefl_run — the command-line front end to the simulator.
//
// Runs any (task, algorithm, topology, hyperparameter) combination without
// writing code and emits the accuracy history as CSV:
//
//   middlefl_run --task emnist --algorithm middle --edges 10 --devices 50
//                --k 3 --local-steps 10 --tc 10 --mobility 0.5
//                --steps 800 --out history.csv      (one command line)
//
// Every run is described internally by a config::ScenarioSpec.
// `--scenario file.json` loads a declarative spec; any flag given
// explicitly on the command line then overrides the corresponding spec
// field (flags keep their historical defaults when no spec is loaded, so
// flag-only invocations behave exactly as before). `--dump-scenario
// file.json` (or `-` for stdout) writes the fully-resolved spec in
// canonical form and exits — the way the shipped examples/scenarios/*.json
// were produced.
//
// Per-link transport policies (loss probability, lossy compression,
// latency in steps) are set with the --uplink-*, --downlink-*, --wan-* and
// --broadcast-loss flags.
// `--json-summary <path>` dumps the final accuracy,
// communication/transport statistics and dropout counters as JSON for
// sweep tooling.
//
// Defaults mirror the fast-scale benchmark configuration. `--list` prints
// the available tasks/algorithms/architectures/topologies;
// `--list-algorithms` prints the algorithm registry keys one per line.
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "bench_common.hpp"
#include "config/scenario.hpp"
#include "config/scenario_build.hpp"
#include "serve/load_gen.hpp"
#include "serve/serving.hpp"
#include "middlefl.hpp"

namespace {

using namespace middlefl;

struct Options {
  std::string scenario;       // --scenario file.json
  std::string dump_scenario;  // --dump-scenario file.json | -

  std::string task = "mnist";
  std::string algorithm = "middle";
  std::string arch = "mlp2";
  std::string optimizer = "sgd";
  std::string topology = "home-ring";
  std::string out;
  std::string json_summary;
  /// Closed-loop inference clients served alongside training (0 = only
  /// when the scenario enables serving; then 2 clients).
  std::size_t serve_clients = 0;
  std::string trace_out;    // Chrome trace-event JSON (Perfetto)
  std::string metrics_out;  // metrics snapshot JSON
  std::string log_jsonl;    // per-step/per-eval JSONL flight record
  std::string uplink_compression = "none";
  std::string downlink_compression = "none";
  std::string wan_compression = "none";

  std::size_t edges = 10;
  std::size_t devices = 50;
  std::size_t k = 3;             // selected per edge
  std::size_t local_steps = 10;  // I
  std::size_t tc = 10;           // T_c
  std::size_t batch = 8;
  std::size_t steps = 400;
  std::size_t eval_every = 10;
  std::size_t eval_samples = 300;
  std::size_t samples_per_device = 80;
  std::size_t train_per_class = 60;
  std::size_t test_per_class = 30;
  std::size_t hidden = 48;
  std::uint64_t seed = 42;

  double mobility = 0.5;
  double home_bias = 0.5;
  double major_fraction = 0.9;
  double lr = 0.005;
  double momentum = 0.9;
  double data_scale = 0.5;
  double uplink_loss = 0.0;
  double downlink_loss = 0.0;
  double wan_loss = 0.0;
  double broadcast_loss = 0.0;
  std::size_t uplink_latency = 0;
  std::size_t wan_latency = 0;
  bool async_cloud = false;       // comm.async_cloud
  std::size_t max_staleness = 1;  // comm.max_staleness
  double target = 0.0;  // optional time-to-accuracy report
  /// Worker threads (0 = MIDDLEFL_THREADS env or hardware concurrency).
  std::size_t threads = 0;

  bool quiet = false;
  bool list = false;
  bool list_algorithms = false;
};

/// seed flag is an override of spec.sim.seed, but several spec fields are
/// derived from it; keep one place that writes it.
void apply_overrides(config::ScenarioSpec& spec, const Options& opt,
                     const util::CliParser& cli, bool have_scenario) {
  // With no spec loaded every flag applies (the historical flag-only
  // behavior); on top of a spec only explicitly-given flags override.
  const auto use = [&](const char* flag) {
    return !have_scenario || cli.was_set(flag);
  };

  if (use("task")) spec.data.task = opt.task;
  if (use("algorithm")) {
    core::parse_algorithm(opt.algorithm);  // fail fast on typos
    spec.algorithm = opt.algorithm;
  }
  if (use("arch")) spec.model.arch = nn::parse_model_arch(opt.arch);
  if (use("optimizer")) spec.optimizer.kind = opt.optimizer;
  if (use("topology")) {
    mobility::parse_topology(opt.topology);
    spec.mobility.topology = opt.topology;
  }
  if (use("edges")) spec.edges = opt.edges;
  if (use("devices")) spec.data.devices = opt.devices;
  if (use("k")) spec.sim.select_per_edge = opt.k;
  if (use("local-steps")) spec.sim.local_steps = opt.local_steps;
  if (use("tc")) spec.sim.cloud_interval = opt.tc;
  if (use("batch")) spec.sim.batch_size = opt.batch;
  if (use("steps")) spec.sim.total_steps = opt.steps;
  if (use("eval-every")) spec.sim.eval_every = opt.eval_every;
  if (use("eval-samples")) spec.sim.eval_samples = opt.eval_samples;
  if (use("samples-per-device")) {
    spec.data.samples_per_device = opt.samples_per_device;
  }
  if (use("train-per-class")) spec.data.train_per_class = opt.train_per_class;
  if (use("test-per-class")) spec.data.test_per_class = opt.test_per_class;
  if (use("hidden")) spec.model.hidden = opt.hidden;
  if (use("seed")) spec.sim.seed = opt.seed;
  if (use("mobility")) spec.mobility.switch_prob = opt.mobility;
  if (use("home-bias")) spec.mobility.home_bias = opt.home_bias;
  if (use("major-fraction")) spec.data.major_fraction = opt.major_fraction;
  if (use("lr")) spec.optimizer.learning_rate = opt.lr;
  if (cli.was_set("lr")) {
    // The schedule, not the optimizer, sets each round's rate: an explicit
    // --lr becomes a constant schedule, or the base of a named one.
    if (spec.lr_schedule.kind == "default") spec.lr_schedule.kind = "constant";
    spec.lr_schedule.base_lr = opt.lr;
  }
  if (use("momentum")) spec.optimizer.momentum = opt.momentum;
  if (use("data-scale")) spec.data.scale = opt.data_scale;

  // Per-link transport policies.
  auto& transport = spec.sim.transport;
  if (use("uplink-loss")) transport.wireless_up.loss_prob = opt.uplink_loss;
  if (use("uplink-compression")) {
    transport.wireless_up.compression =
        transport::parse_compression(opt.uplink_compression);
  }
  if (use("uplink-latency")) {
    transport.wireless_up.latency_steps = opt.uplink_latency;
  }
  if (use("downlink-loss")) {
    transport.wireless_down.loss_prob = opt.downlink_loss;
  }
  if (use("downlink-compression")) {
    transport.wireless_down.compression =
        transport::parse_compression(opt.downlink_compression);
  }
  if (use("wan-loss")) {
    transport.wan_up.loss_prob = opt.wan_loss;
    transport.wan_down.loss_prob = opt.wan_loss;
  }
  if (use("wan-compression")) {
    const auto wan_compression =
        transport::parse_compression(opt.wan_compression);
    transport.wan_up.compression = wan_compression;
    transport.wan_down.compression = wan_compression;
  }
  if (use("wan-latency")) transport.wan_up.latency_steps = opt.wan_latency;
  if (use("async-cloud")) spec.sim.comm.async_cloud = opt.async_cloud;
  if (use("max-staleness")) spec.sim.comm.max_staleness = opt.max_staleness;
  if (use("broadcast-loss")) {
    transport.broadcast.loss_prob = opt.broadcast_loss;
  }
}

/// Machine-readable run summary for sweep tooling: run identity and
/// accuracy up front, then the shared comm/transport/dropout/fleet block
/// (bench::json_summary_fields — the same fields every summary emitter
/// writes).
void write_json_summary(const std::string& path,
                        const config::ScenarioSpec& spec, double target,
                        const core::Simulation& sim,
                        const core::RunHistory& history) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("cannot write JSON summary to '" + path + "'");
  }
  const auto summary = bench::SimRunSummary::capture(sim);
  file << "{\n";
  file << "  \"task\": \"" << spec.data.task << "\",\n";
  file << "  \"algorithm\": \"" << spec.algorithm << "\",\n";
  file << "  \"seed\": " << spec.sim.seed << ",\n";
  file << "  \"steps\": " << summary.steps << ",\n";
  file << "  \"final_accuracy\": "
       << config::format_number(history.final_accuracy()) << ",\n";
  file << "  \"best_accuracy\": "
       << config::format_number(history.best_accuracy()) << ",\n";
  file << "  \"final_loss\": "
       << config::format_number(
              history.points.empty() ? 0.0 : history.points.back().loss)
       << ",\n";
  if (target > 0.0) {
    const auto tta = history.time_to_accuracy(target);
    file << "  \"target_accuracy\": " << config::format_number(target)
         << ",\n";
    file << "  \"time_to_target\": "
         << (tta ? std::to_string(*tta) : std::string("null")) << ",\n";
  }
  file << bench::json_summary_fields(summary, "  ") << ",\n";
  file << "  \"eval_points\": " << history.points.size() << "\n";
  file << "}\n";
}

int run(int argc, const char* const* argv) {
  Options opt;
  util::CliParser cli(
      "middlefl_run: hierarchical federated learning simulator (MIDDLE, "
      "ICPP 2023 reproduction)");
  cli.add_flag("scenario",
               "load a declarative scenario JSON; explicit flags override "
               "its fields",
               &opt.scenario);
  cli.add_flag("dump-scenario",
               "write the resolved scenario JSON here ('-' = stdout) and "
               "exit",
               &opt.dump_scenario);
  cli.add_flag("task", "mnist|emnist|cifar10|speech", &opt.task);
  cli.add_flag("algorithm", "middle|oort|fedmes|greedy|ensemble|hierfavg",
               &opt.algorithm);
  cli.add_flag("arch", "logistic|mlp|mlp2|cnn2|cnn3", &opt.arch);
  cli.add_flag("optimizer", "sgd|adam", &opt.optimizer);
  cli.add_flag("topology", "uniform|ring|home-ring", &opt.topology);
  cli.add_flag("out", "write history CSV here", &opt.out);
  cli.add_flag("edges", "number of edge servers", &opt.edges);
  cli.add_flag("devices", "number of mobile devices", &opt.devices);
  cli.add_flag("k", "devices selected per edge per step", &opt.k);
  cli.add_flag("local-steps", "local SGD steps I per round", &opt.local_steps);
  cli.add_flag("tc", "cloud-edge sync interval T_c", &opt.tc);
  cli.add_flag("batch", "local minibatch size", &opt.batch);
  cli.add_flag("steps", "total time steps T", &opt.steps);
  cli.add_flag("eval-every", "evaluation cadence", &opt.eval_every);
  cli.add_flag("eval-samples", "test subsample (0 = full)", &opt.eval_samples);
  cli.add_flag("samples-per-device", "local dataset size d_m",
               &opt.samples_per_device);
  cli.add_flag("train-per-class", "train set draws per class",
               &opt.train_per_class);
  cli.add_flag("test-per-class", "test set draws per class",
               &opt.test_per_class);
  cli.add_flag("hidden", "hidden width of the model", &opt.hidden);
  cli.add_flag("seed", "experiment seed", &opt.seed);
  cli.add_flag("mobility", "global mobility P", &opt.mobility);
  cli.add_flag("home-bias", "home-return probability (home-ring)",
               &opt.home_bias);
  cli.add_flag("major-fraction", "per-device major-class share",
               &opt.major_fraction);
  cli.add_flag("lr",
               "learning rate (a constant lr_schedule, or a named "
               "schedule's base_lr)",
               &opt.lr);
  cli.add_flag("momentum", "SGD momentum", &opt.momentum);
  cli.add_flag("data-scale", "spatial scale of the synthetic inputs",
               &opt.data_scale);
  cli.add_flag("uplink-loss", "device->edge upload loss probability",
               &opt.uplink_loss);
  cli.add_flag("uplink-compression",
               "device->edge compression (none|q8|topk:<frac>)",
               &opt.uplink_compression);
  cli.add_flag("uplink-latency",
               "device->edge delivery delay in steps (stale aggregation)",
               &opt.uplink_latency);
  cli.add_flag("downlink-loss", "edge->device download loss probability",
               &opt.downlink_loss);
  cli.add_flag("downlink-compression",
               "edge->device compression (none|q8|topk:<frac>)",
               &opt.downlink_compression);
  cli.add_flag("wan-loss", "edge<->cloud sync loss probability",
               &opt.wan_loss);
  cli.add_flag("wan-compression",
               "edge->cloud compression (none|q8|topk:<frac>)",
               &opt.wan_compression);
  cli.add_flag("wan-latency",
               "edge->cloud delivery delay in steps (stale cloud sync)",
               &opt.wan_latency);
  cli.add_flag("async-cloud",
               "staleness-bounded semi-async edge->cloud sync (src/comm)",
               &opt.async_cloud);
  cli.add_flag("max-staleness",
               "staleness bound in cloud rounds for --async-cloud",
               &opt.max_staleness);
  cli.add_flag("broadcast-loss", "cloud->device broadcast loss probability",
               &opt.broadcast_loss);
  cli.add_flag("json-summary", "write a JSON run summary here",
               &opt.json_summary);
  cli.add_flag("serve-clients",
               "serve inference to this many closed-loop clients during "
               "the run (implies serving even if the scenario disables it)",
               &opt.serve_clients);
  cli.add_flag("trace-out",
               "write a Chrome trace-event JSON (Perfetto-loadable) here",
               &opt.trace_out);
  cli.add_flag("metrics-out", "write a metrics snapshot JSON here",
               &opt.metrics_out);
  cli.add_flag("log-jsonl", "write per-step/per-eval JSONL records here",
               &opt.log_jsonl);
  cli.add_flag("target", "report time-to-accuracy for this target (0 = off)",
               &opt.target);
  cli.add_flag("threads",
               "worker threads (0 = MIDDLEFL_THREADS env or hardware)",
               &opt.threads);
  cli.add_flag("quiet", "suppress per-eval progress lines", &opt.quiet);
  cli.add_flag("list", "print available options and exit", &opt.list);
  cli.add_flag("list-algorithms",
               "print the algorithm registry keys and exit",
               &opt.list_algorithms);
  if (!cli.parse(argc, argv)) return 0;

  // Before the first ThreadPool::global() use, so the shared pool is built
  // at the requested size.
  parallel::ThreadPool::set_default_size(opt.threads);

  if (opt.list) {
    std::cout << "tasks:      mnist emnist cifar10 speech\n"
              << "algorithms: middle oort fedmes greedy ensemble hierfavg\n"
              << "archs:      logistic mlp mlp2 cnn2 cnn3\n"
              << "optimizers: sgd adam\n"
              << "topologies: uniform ring home-ring\n";
    return 0;
  }
  if (opt.list_algorithms) {
    for (const auto& name : core::algorithm_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  // Resolve the run description: spec file (when given), then explicit
  // flags on top.
  const bool have_scenario = !opt.scenario.empty();
  config::ScenarioSpec spec;
  if (have_scenario) {
    spec = config::load_scenario_file(opt.scenario);
  }
  apply_overrides(spec, opt, cli, have_scenario);

  if (!opt.dump_scenario.empty()) {
    if (opt.dump_scenario == "-") {
      std::cout << config::scenario_to_text(spec);
    } else {
      config::save_scenario_file(spec, opt.dump_scenario);
      std::cerr << "scenario written to " << opt.dump_scenario << "\n";
    }
    return 0;
  }

  const config::BuiltScenario built = config::build_scenario(spec);
  auto sim = config::make_simulation(built);

  // Observability: each recorder exists only when its output was requested;
  // an all-null bundle keeps the simulator on the zero-cost path.
  bench::ObsSession obs(opt.trace_out, opt.metrics_out, opt.log_jsonl);
  obs.attach(*sim);

  // Edge inference serving rides along when the scenario enables it or
  // --serve-clients asks for it: every edge aggregate is republished into
  // the hub and closed-loop clients issue requests for the whole run.
  std::unique_ptr<serve::ServingHub> hub;
  std::unique_ptr<serve::LoadGenerator> load;
  if (opt.serve_clients > 0 || spec.sim.serving.enabled) {
    hub = std::make_unique<serve::ServingHub>(
        spec.sim.serving, spec.edges, built.model,
        &parallel::ThreadPool::global());
    if (obs.enabled()) hub->set_observability(obs.bundle());
    sim->set_edge_model_sink(hub.get());
    serve::LoadGenerator::Options gen;
    gen.clients = opt.serve_clients > 0 ? opt.serve_clients : 2;
    load = std::make_unique<serve::LoadGenerator>(*hub, built.test, gen);
    load->start();
  }

  const auto history = sim->run([&opt](const core::EvalPoint& point) {
    if (!opt.quiet) {
      std::cerr << "step " << point.step << "  acc " << point.accuracy
                << "  loss " << point.loss << "\n";
    }
  });

  if (load != nullptr) {
    const serve::LoadGenerator::Window window = load->stop();
    hub->quiesce();
    const serve::ServingHub::Stats totals = hub->stats();
    std::cerr << "served " << window.completed << " requests ("
              << window.qps() << " qps, " << window.rejected
              << " rejected) over " << totals.batches << " batches, "
              << totals.publishes << " model hot-swaps\n";
  }

  obs.collect(*sim);
  obs.finish();

  if (!opt.out.empty()) {
    core::save_history_csv(history, opt.out);
    std::cerr << "history written to " << opt.out << "\n";
  }
  if (!opt.json_summary.empty()) {
    write_json_summary(opt.json_summary, spec, opt.target, *sim, history);
    std::cerr << "summary written to " << opt.json_summary << "\n";
  }
  std::cerr << "final accuracy " << history.final_accuracy() << "  best "
            << history.best_accuracy() << "  on-device aggregations "
            << sim->on_device_aggregations() << "  uplink "
            << static_cast<double>(sim->upload_bytes()) / (1024.0 * 1024.0)
            << " MB\n";
  if (opt.target > 0.0) {
    const auto tta = history.time_to_accuracy(opt.target);
    std::cerr << "time to " << opt.target << ": "
              << (tta ? std::to_string(*tta) + " steps"
                      : std::string("not reached"))
              << "\n";
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
