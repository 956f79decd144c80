// middlefl_run — the command-line front end to the simulator.
//
// A run is the config::ScenarioSpec in `--scenario file.json` (see
// examples/scenarios/), with `--set '<JSON object>'` mapping dotted spec
// paths to values spliced in before the strict schema decode:
//
//   middlefl_run --scenario examples/scenarios/fig6.json
//                --set '{"sim.total_steps": 800, "mobility.switch_prob": 0.2}'
//                --out history.csv
//
// `--axes axes.json` maps dotted spec paths to value lists, e.g.
// {"algorithm": ["middle", "fedmes"], "mobility.switch_prob": [0, 0.5]},
// and runs their cross product, one cell per combination; without axes a
// run is one cell. `--json-summary` writes one JSONL row per cell
// (summary_row), and a failed cell makes the exit status nonzero. --out,
// --serve-clients, --dump-scenario and the observability outputs describe
// a single run.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

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
  std::string axes;           // --axes axes.json
  std::string dump_scenario;  // --dump-scenario file.json | -
  std::string out;
  std::string json_summary;
  std::size_t serve_clients = 0;  // 0 = 2 clients if the spec enables serving
  std::string trace_out;    // Chrome trace-event JSON (Perfetto)
  std::string metrics_out;  // metrics snapshot JSON
  std::string log_jsonl;    // per-step/per-eval JSONL flight record
  double target = 0.0;      // time-to-accuracy target (0 = off)
  std::size_t threads = 0;  // 0 = MIDDLEFL_THREADS env or hardware
  bool quiet = false;
  bool list_algorithms = false;
};

/// One cell of a run: its spec, its axis values in axes-file order, and
/// what running it left behind (`error` is non-empty when it failed).
struct Cell {
  config::ScenarioSpec spec;
  config::Json axis_values = config::Json::make_object();
  std::string error;
  core::RunHistory history;
  bench::SimRunSummary summary;
};

/// Reads an axes file, a JSON object mapping dotted spec paths to the
/// non-empty list of values each axis takes, and returns its cells, the
/// last axis varying fastest. Overlapping paths, among the axes or with a
/// path of `set` (the --set object), would splice last-wins and mislabel
/// every row, so they are refused.
std::vector<Cell> load_cells(const std::string& path,
                             const config::Json& set) {
  const config::Json axes = config::parse_json_file(path);
  if (!axes.is_object()) {
    throw std::runtime_error(config::position_of(path, axes) +
                             ": axes file must be a JSON object mapping "
                             "dotted spec paths to value arrays");
  }
  std::size_t cells = 1;
  for (const auto& [axis, values] : axes.members()) {
    if (!values.is_array() || values.items().empty()) {
      throw std::runtime_error(config::position_of(path, values) +
                               ": axis '" + axis +
                               "' must be a non-empty array");
    }
    for (const auto& [leaf, value] : set.members()) {
      if ((axis + '.').starts_with(leaf + '.') ||
          (leaf + '.').starts_with(axis + '.')) {
        throw std::runtime_error(
            config::position_of(path, values) + ": axis '" + axis +
            "' overlaps --set path '" + leaf + "' at " +
            config::position_of("--set", value) + "; set each leaf once");
      }
    }
    const std::size_t size = values.items().size();
    if (cells > std::numeric_limits<std::size_t>::max() / size) {
      throw std::runtime_error(path + ": the cell count (the product of " +
                               std::to_string(axes.members().size()) +
                               " axis sizes) overflows size_t");
    }
    cells *= size;
  }
  config::check_disjoint_paths(axes, path);
  std::vector<Cell> grid(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    // An axis's stride is the product of the sizes of the axes after it.
    std::size_t stride = cells;
    for (const auto& [axis, values] : axes.members()) {
      const std::size_t size = values.items().size();
      stride /= size;
      grid[cell].axis_values.set(axis, values.items()[cell / stride % size]);
    }
  }
  return grid;
}

/// Builds and runs one cell. A single run (`single`) also echoes its eval
/// points and serves inference when the scenario enables it.
void run_cell(Cell& cell, const Options& opt, bool single) {
  const config::ScenarioSpec& spec = cell.spec;
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
  if (opt.serve_clients > 0 || (single && spec.sim.serving.enabled)) {
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

  cell.history = sim->run([&](const core::EvalPoint& point) {
    if (single && !opt.quiet) {
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
  cell.summary = bench::SimRunSummary::capture(*sim);
}

/// The one summary emitter: run identity, axis values and accuracy up
/// front, then the shared comm/transport/dropout/fleet block.
config::Json summary_row(std::size_t index, const Cell& cell, double target) {
  using config::Json;
  Json row = Json::make_object();
  row.set("cell", Json::make_uint(index));
  row.set("scenario", Json::make_string(cell.spec.name));
  row.set("algorithm", Json::make_string(cell.spec.algorithm));
  for (const auto& [path, value] : cell.axis_values.members()) {
    row.set(path, value);
  }
  if (!cell.error.empty()) {
    row.set("error", Json::make_string(cell.error));
    return row;
  }
  const core::RunHistory& history = cell.history;
  row.set("steps", Json::make_uint(cell.summary.steps));
  row.set("final_accuracy", Json::make_number(history.final_accuracy()));
  row.set("best_accuracy", Json::make_number(history.best_accuracy()));
  row.set("final_loss",
          Json::make_number(history.points.empty()
                                ? 0.0
                                : history.points.back().loss));
  if (target > 0.0) {
    const auto tta = history.time_to_accuracy(target);
    row.set("target_accuracy", Json::make_number(target));
    row.set("time_to_target", tta ? Json::make_uint(*tta) : Json::make_null());
  }
  bench::append_summary_members(row, cell.summary);
  return row;
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
  cli.add_flag("axes",
               "JSON object of dotted spec paths to value arrays: run "
               "their cross product, one cell per combination",
               &opt.axes);
  cli.add_flag("dump-scenario",
               "write the resolved scenario JSON here ('-' = stdout) and "
               "exit",
               &opt.dump_scenario);
  cli.add_flag("out", "write history CSV here", &opt.out);
  cli.add_flag("json-summary", "write one JSONL summary row per cell here",
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
  cli.add_flag("target",
               "add time-to-accuracy for this target to the summary rows "
               "(0 = off)",
               &opt.target);
  cli.add_flag("threads",
               "worker threads (0 = MIDDLEFL_THREADS env or hardware)",
               &opt.threads);
  cli.add_flag("quiet", "suppress progress lines", &opt.quiet);
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

  const config::Json set = config::parse_json(opt.set, "--set");
  const config::Json base =
      config::scenario_to_json(config::scenario_with_overrides(
          config::parse_json_file(opt.scenario), opt.scenario, set, "--set"));
  std::vector<Cell> grid(1);
  if (!opt.axes.empty()) grid = load_cells(opt.axes, set);
  const std::size_t cells = grid.size();
  const std::pair<const char*, bool> single_run_flags[] = {
      {"out", !opt.out.empty()},
      {"trace-out", !opt.trace_out.empty()},
      {"metrics-out", !opt.metrics_out.empty()},
      {"log-jsonl", !opt.log_jsonl.empty()},
      {"serve-clients", opt.serve_clients > 0},
      {"dump-scenario", !opt.dump_scenario.empty()}};
  for (const auto& [flag, given] : single_run_flags) {
    if (given && cells > 1) {
      throw std::runtime_error(std::string("--") + flag +
                               " describes a single run, and '" + opt.axes +
                               "' gives " + std::to_string(cells) + " cells");
    }
  }

  // Splice and decode every cell before anything runs: a bad axis path or
  // value fails the whole sweep up front, with the cell named.
  for (std::size_t index = 0; index < cells; ++index) {
    Cell& cell = grid[index];
    cell.spec = config::scenario_with_overrides(
        base, opt.scenario + " [cell " + std::to_string(index) + "]",
        cell.axis_values, opt.axes);
    // A sweep parallelizes across cells; each cell runs serially so its
    // results match a standalone single-threaded run bit for bit.
    if (cells > 1) cell.spec.sim.parallel_devices = false;
  }

  if (!opt.dump_scenario.empty()) {
    if (opt.dump_scenario == "-") {
      std::cout << config::scenario_to_text(grid[0].spec);
    } else {
      config::save_scenario_file(grid[0].spec, opt.dump_scenario);
    }
    return 0;
  }

  // Open every output before the first step, so a bad path costs no
  // training; the writers reopen their paths when the run ends.
  for (const std::string* path : {&opt.json_summary, &opt.out, &opt.trace_out,
                                  &opt.metrics_out, &opt.log_jsonl}) {
    if (!path->empty() && !std::ofstream(*path)) {
      throw std::runtime_error("cannot write '" + *path + "'");
    }
  }

  std::mutex progress_mutex;
  const auto run_one = [&](std::size_t index) {
    Cell& cell = grid[index];
    try {
      run_cell(cell, opt, cells == 1);
    } catch (const std::exception& e) {
      cell.error = e.what();
    }
    // A single run echoes its eval points, and main reports its error.
    if (opt.quiet || cells == 1) return;
    const std::scoped_lock lock(progress_mutex);
    std::cerr << "cell " << index << "/" << cells << "  "
              << (cell.error.empty()
                      ? "acc " + config::format_number(
                                     cell.history.final_accuracy())
                      : "error: " + cell.error)
              << "\n";
  };
  // A null pool runs a single run inline, leaving the pool to its devices.
  parallel::parallel_for(cells > 1 ? &parallel::ThreadPool::global() : nullptr,
                         0, cells, run_one);

  if (!opt.out.empty() && grid[0].error.empty()) {
    core::save_history_csv(grid[0].history, opt.out);
  }
  if (!opt.json_summary.empty()) {
    obs::RunLogger rows(opt.json_summary);
    for (std::size_t index = 0; index < cells; ++index) {
      rows.log_line(summary_row(index, grid[index], opt.target).dump(0));
    }
    rows.flush();
  }
  if (cells == 1 && !grid[0].error.empty()) {
    throw std::runtime_error(grid[0].error);
  }
  const bool failed = std::any_of(grid.begin(), grid.end(), [](const Cell& c) {
    return !c.error.empty();
  });
  return failed ? 1 : 0;
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
