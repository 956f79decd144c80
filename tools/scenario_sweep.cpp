// scenario_sweep — declarative experiment matrices over ScenarioSpec.
//
// Takes a base scenario plus an axes file and runs the full cross
// product, one simulation per cell, fanned out over the shared thread
// pool with parallel_for:
//
//   scenario_sweep --base examples/scenarios/fig6.json
//                  --axes axes.json --out sweep.jsonl
//
// The axes file is one JSON object mapping a dotted ScenarioSpec path to
// the list of values that axis takes:
//
//   {
//     "algorithm": ["middle", "hierfavg", "fedmes"],
//     "mobility.switch_prob": [0.0, 0.2, 0.5]
//   }
//
// Axis order is file order and the last axis varies fastest, so cell 0 is
// (middle, 0.0), cell 1 is (middle, 0.2), ... — a deterministic
// enumeration that downstream joins can rely on. Each cell's document is
// the base spec with its axis values spliced in by path, then decoded
// through the same strict schema as `middlefl_run --scenario ... --set`
// (config::scenario_with_overrides): a typo in an axis path, or two axes
// whose paths overlap (`sim` next to `sim.total_steps`), is rejected
// before anything runs, with the axes file position and the axis path.
//
// Cells run concurrently (each worker claims the next cell); inside a cell
// the simulator is forced serial (`sim.parallel_devices = false`) so
// results are bitwise identical to running each cell alone. Output is
// JSONL — one row per cell, in cell order, carrying the cell index, the
// axis values, the accuracy results and the shared
// comm/transport/dropout/fleet summary block — validated by
// `json_check --jsonl`. A cell that fails at runtime yields a row with an
// "error" member and a nonzero exit code; the other cells still run and
// report. An axes file whose value counts multiply past size_t is
// rejected before anything runs.
#include <cstddef>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "config/json.hpp"
#include "config/scenario.hpp"
#include "config/scenario_build.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/run_logger.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/cli.hpp"

namespace {

using namespace middlefl;

struct Options {
  std::string base;         // --base spec.json (required)
  std::string axes;         // --axes axes.json (required)
  std::string out;          // --out rows.jsonl (stdout when empty)
  std::string metrics_out;  // optional sweep-level metrics snapshot
  std::size_t threads = 0;
  bool quiet = false;
};

/// One sweep dimension: a dotted spec path and the values it takes.
struct Axis {
  std::string path;
  std::vector<config::Json> values;
};

struct CellResult {
  bool ok = false;
  std::string error;
  std::size_t steps = 0;
  double final_accuracy = 0.0;
  double best_accuracy = 0.0;
  double final_loss = 0.0;
  bench::SimRunSummary summary;
};

std::vector<Axis> load_axes(const std::string& path) {
  const config::Json doc = config::parse_json_file(path);
  if (!doc.is_object()) {
    throw std::runtime_error(config::position_of(path, doc) +
                             ": axes file must be a JSON object mapping "
                             "dotted spec paths to value arrays");
  }
  std::vector<Axis> axes;
  for (const auto& [key, value] : doc.members()) {
    if (!value.is_array() || value.items().empty()) {
      throw std::runtime_error(config::position_of(path, value) +
                               ": axis '" + key +
                               "' must be a non-empty array");
    }
    axes.push_back(Axis{key, value.items()});
  }
  // Overlapping axes would splice last-wins and mislabel every row.
  config::check_disjoint_paths(doc, path);
  return axes;
}

/// Per-axis value indices of `cell`, last axis fastest.
std::vector<std::size_t> cell_indices(std::size_t cell,
                                      const std::vector<Axis>& axes) {
  std::vector<std::size_t> indices(axes.size(), 0);
  for (std::size_t a = axes.size(); a-- > 0;) {
    indices[a] = cell % axes[a].values.size();
    cell /= axes[a].values.size();
  }
  return indices;
}

int run(int argc, const char* const* argv) {
  Options opt;
  util::CliParser cli(
      "scenario_sweep: run the cross product of a base scenario and an "
      "axes file, one JSONL row per cell");
  cli.add_flag("base", "base scenario JSON (see examples/scenarios/)",
               &opt.base);
  cli.add_flag("axes", "axes JSON: {\"dotted.path\": [values...], ...}",
               &opt.axes);
  cli.add_flag("out", "write JSONL rows here (default: stdout)", &opt.out);
  cli.add_flag("metrics-out", "write a sweep-level metrics snapshot here",
               &opt.metrics_out);
  cli.add_flag("threads",
               "worker threads (0 = MIDDLEFL_THREADS env or hardware)",
               &opt.threads);
  cli.add_flag("quiet", "suppress per-cell progress lines", &opt.quiet);
  if (!cli.parse(argc, argv)) return 0;
  if (opt.base.empty()) throw std::runtime_error("--base is required");
  if (opt.axes.empty()) throw std::runtime_error("--axes is required");

  parallel::ThreadPool::set_default_size(opt.threads);

  const config::Json base = config::parse_json_file(opt.base);
  const std::vector<Axis> axes = load_axes(opt.axes);
  constexpr std::size_t kMaxCells = std::numeric_limits<std::size_t>::max();
  std::size_t cells = 1;
  for (const auto& axis : axes) {
    if (cells > kMaxCells / axis.values.size()) {
      throw std::runtime_error(opt.axes + ": the cell count (the product of " +
                               std::to_string(axes.size()) +
                               " axis sizes) overflows size_t");
    }
    cells *= axis.values.size();
  }

  // Splice and decode every cell before anything runs: a bad axis path or
  // value fails the whole sweep up front, with the cell named.
  std::vector<config::ScenarioSpec> specs;
  specs.reserve(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const auto indices = cell_indices(cell, axes);
    config::Json overrides = config::Json::make_object();
    for (std::size_t a = 0; a < axes.size(); ++a) {
      overrides.set(axes[a].path, axes[a].values[indices[a]]);
    }
    auto spec = config::scenario_with_overrides(
        base, opt.base + " [cell " + std::to_string(cell) + "]", overrides,
        opt.axes);
    // The sweep parallelizes across cells; each cell runs serially so its
    // results match a standalone single-threaded run bit for bit.
    spec.sim.parallel_devices = false;
    specs.push_back(std::move(spec));
  }

  if (!opt.quiet) {
    std::cerr << "sweep: " << cells << " cells over " << axes.size()
              << " axes\n";
  }

  std::vector<CellResult> results(cells);
  std::mutex progress_mutex;
  parallel::parallel_for(&parallel::ThreadPool::global(), 0, cells,
                         [&](std::size_t cell) {
    auto& result = results[cell];
    try {
      const config::BuiltScenario built = config::build_scenario(specs[cell]);
      const auto sim = config::make_simulation(built);
      const auto history = sim->run([](const core::EvalPoint&) {});
      result.steps = sim->current_step();
      result.final_accuracy = history.final_accuracy();
      result.best_accuracy = history.best_accuracy();
      result.final_loss =
          history.points.empty() ? 0.0 : history.points.back().loss;
      result.summary = bench::SimRunSummary::capture(*sim);
      result.ok = true;
    } catch (const std::exception& e) {
      result.error = e.what();
    }
    if (!opt.quiet) {
      const std::scoped_lock lock(progress_mutex);
      std::cerr << "cell " << cell << "/" << cells << "  "
                << (result.ok
                        ? "acc " + config::format_number(result.final_accuracy)
                        : "error: " + result.error)
                << "\n";
    }
  });

  std::unique_ptr<obs::RunLogger> logger;
  if (opt.out.empty()) {
    logger = std::make_unique<obs::RunLogger>(std::cout);
  } else {
    logger = std::make_unique<obs::RunLogger>(opt.out);
  }
  std::size_t failed = 0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const auto indices = cell_indices(cell, axes);
    const auto& result = results[cell];
    config::Json row = config::Json::make_object();
    row.set("cell", config::Json::make_uint(cell));
    row.set("scenario", config::Json::make_string(specs[cell].name));
    row.set("algorithm", config::Json::make_string(specs[cell].algorithm));
    for (std::size_t a = 0; a < axes.size(); ++a) {
      row.set(axes[a].path, axes[a].values[indices[a]]);
    }
    if (result.ok) {
      row.set("steps", config::Json::make_uint(result.steps));
      row.set("final_accuracy",
              config::Json::make_number(result.final_accuracy));
      row.set("best_accuracy",
              config::Json::make_number(result.best_accuracy));
      row.set("final_loss", config::Json::make_number(result.final_loss));
      bench::append_summary_members(row, result.summary);
    } else {
      ++failed;
      row.set("error", config::Json::make_string(result.error));
    }
    logger->log_line(row.dump(0));
  }
  logger->flush();
  if (!opt.out.empty()) {
    std::cerr << "sweep rows written to " << opt.out << " (" << cells
              << " cells, " << failed << " failed)\n";
  }

  if (!opt.metrics_out.empty()) {
    obs::MetricsRegistry metrics;
    metrics.set(metrics.gauge("sweep.cells"),
                static_cast<double>(cells));
    metrics.set(metrics.gauge("sweep.failed"),
                static_cast<double>(failed));
    metrics.set(metrics.gauge("sweep.axes"),
                static_cast<double>(axes.size()));
    metrics.write_json_file(opt.metrics_out);
    std::cerr << "metrics written to " << opt.metrics_out << "\n";
  }
  return failed == 0 ? 0 : 1;
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
