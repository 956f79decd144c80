// middlefl_run — the command-line front end to the simulator.
//
// A run is one config::ScenarioSpec, read from `--scenario file.json`
// (see examples/scenarios/; fig6.json is the Fig. 6 MNIST run).
// `--set '<JSON object>'` maps dotted spec paths to values, spliced into
// the document before the strict schema decode — the same splice
// scenario_sweep applies per cell:
//
//   middlefl_run --scenario examples/scenarios/fig6.json
//                --set '{"sim.total_steps": 800, "mobility.switch_prob": 0.2}'
//                --out history.csv
//
// Every spec leaf has this one spelling: per-link transport policies are
// `sim.transport.<link>.*`, the learning rate of a run is its
// `lr_schedule`. `--dump-scenario file.json` (or `-` for stdout) writes the
// resolved spec, after --set, in canonical form and exits.
// `--json-summary <path>` dumps the final accuracy,
// communication/transport statistics and dropout counters as JSON for
// sweep tooling. `--list-algorithms` prints the algorithm registry keys
// one per line.
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "bench_common.hpp"
#include "config/json.hpp"
#include "config/scenario.hpp"
#include "config/scenario_build.hpp"
#include "serve/load_gen.hpp"
#include "serve/serving.hpp"
#include "middlefl.hpp"

namespace {

using namespace middlefl;

struct Options {
  std::string scenario;       // --scenario file.json (required)
  std::string set = "{}";     // --set '{"dotted.path": value, ...}'
  std::string dump_scenario;  // --dump-scenario file.json | -
  std::string out;
  std::string json_summary;
  /// Closed-loop inference clients served alongside training (0 = only
  /// when the scenario enables serving; then 2 clients).
  std::size_t serve_clients = 0;
  std::string trace_out;    // Chrome trace-event JSON (Perfetto)
  std::string metrics_out;  // metrics snapshot JSON
  std::string log_jsonl;    // per-step/per-eval JSONL flight record
  double target = 0.0;  // optional time-to-accuracy report
  /// Worker threads (0 = MIDDLEFL_THREADS env or hardware concurrency).
  std::size_t threads = 0;

  bool quiet = false;
  bool list_algorithms = false;
};

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
               "scenario JSON describing the run (required; see "
               "examples/scenarios/)",
               &opt.scenario);
  cli.add_flag("set",
               "JSON object of dotted spec paths to values, spliced into "
               "the scenario",
               &opt.set);
  cli.add_flag("dump-scenario",
               "write the resolved scenario JSON here ('-' = stdout) and "
               "exit",
               &opt.dump_scenario);
  cli.add_flag("out", "write history CSV here", &opt.out);
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
  cli.add_flag("list-algorithms",
               "print the algorithm registry keys and exit",
               &opt.list_algorithms);
  if (!cli.parse(argc, argv)) return 0;

  // Before the first ThreadPool::global() use, so the shared pool is built
  // at the requested size.
  parallel::ThreadPool::set_default_size(opt.threads);

  if (opt.list_algorithms) {
    for (const auto& name : core::algorithm_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (opt.scenario.empty()) {
    throw std::runtime_error(
        "--scenario FILE is required (examples/scenarios/fig6.json is the "
        "Fig. 6 MNIST run; --set '{\"dotted.path\": value}' overrides its "
        "fields)");
  }

  const config::ScenarioSpec spec = config::scenario_with_overrides(
      config::parse_json_file(opt.scenario), opt.scenario,
      config::parse_json(opt.set, "--set"), "--set");

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
