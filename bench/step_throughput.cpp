// End-to-end step-loop throughput: steps/sec of Simulation::step() on the
// Fig-6 configuration (fast scale by default, §6.1.2's CNN-2 scale with
// --paper; no evaluations, pure training loop).
//
// This is the number the hot-path work optimizes — selection scoring, local
// SGD, edge aggregation and snapshot upkeep all sit inside one step. After
// --warmup steps, every measurement times --repeats consecutive windows
// (default 3) of --steps steps each on one simulation and reports the
// median and interquartile range of the per-window steps/sec. The
// result is emitted as JSON (default BENCH_step_throughput.json), opening
// with the shared protocol header (bench::protocol_json), so the perf
// trajectory is tracked across PRs. Besides the main measurement on
// the configured pool, a thread-scaling sweep (requested sizes 1/2/4/8,
// clamped to the hardware concurrency so a small host measures real scaling
// instead of oversubscription noise) records how the per-edge chain
// fan-out scales; --no-sweep skips it. Requested sizes that clamp to the
// same effective pool collapse into ONE sweep row whose
// `threads_requested` lists every requested size it covers (with an
// `oversubscribed` flag when any of them exceeded the hardware), so a
// 1-core host emits one row instead of four duplicates.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace middlefl;
using bench::BenchOptions;

struct Measurement {
  std::size_t pool_threads = 0;
  /// Every requested sweep size that clamped to this pool size.
  std::vector<std::size_t> threads_requested;
  bool oversubscribed = false;
  double seconds = 0.0;  // all timed windows
  /// Steps/sec of each timed window, in run order, and their spread.
  std::vector<double> window_steps_per_sec;
  bench::Spread steps_per_sec;
  /// Whole-run comm/transport/dropout/fleet accounting (captured while the
  /// simulation is alive; emitted for the main measurement only).
  bench::SimRunSummary summary;
};

/// Runs warmup steps, then `windows` timed windows of `timed_steps` steps,
/// of a fresh simulation on `pool` (nullptr = fully serial) and returns the
/// timing.
Measurement measure(const bench::TaskSetup& setup, core::Algorithm algorithm,
                    const BenchOptions& options, std::size_t warmup_steps,
                    std::size_t timed_steps, std::size_t windows,
                    parallel::ThreadPool* pool,
                    bench::ObsSession* obs = nullptr) {
  bench::TaskSetup run_setup{setup.kind,
                             setup.train,
                             setup.test,
                             setup.partition,
                             setup.initial_edges,
                             setup.model_spec,
                             setup.optimizer->clone_config(),
                             setup.sim_cfg,
                             setup.num_edges,
                             setup.target_accuracy};
  run_setup.sim_cfg.parallel_devices = pool != nullptr;
  run_setup.sim_cfg.pool = pool;
  auto sim = bench::make_simulation(run_setup, algorithm, options);
  if (obs != nullptr) obs->attach(*sim);

  Measurement m;
  for (std::size_t s = 0; s < warmup_steps; ++s) sim->step();
  for (std::size_t w = 0; w < windows; ++w) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < timed_steps; ++s) sim->step();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    m.seconds += seconds;
    m.window_steps_per_sec.push_back(static_cast<double>(timed_steps) /
                                     seconds);
  }
  if (obs != nullptr) obs->collect(*sim);

  m.pool_threads = pool == nullptr ? 1 : pool->size();
  m.steps_per_sec = bench::spread_of(m.window_steps_per_sec);
  m.summary = bench::SimRunSummary::capture(*sim);
  return m;
}

/// The JSON members of a measurement's timing: total seconds, the
/// per-window rates, and their median (`steps_per_sec`), quartiles and IQR.
std::string timing_json(const Measurement& m, const std::string& sep) {
  std::ostringstream os;
  os << "\"seconds\": " << m.seconds << "," << sep
     << "\"window_steps_per_sec\": [";
  for (std::size_t w = 0; w < m.window_steps_per_sec.size(); ++w) {
    os << (w == 0 ? "" : ", ") << m.window_steps_per_sec[w];
  }
  os << "]," << sep << "\"steps_per_sec\": " << m.steps_per_sec.median << ","
     << sep << "\"steps_per_sec_q1\": " << m.steps_per_sec.q1 << "," << sep
     << "\"steps_per_sec_q3\": " << m.steps_per_sec.q3 << "," << sep
     << "\"steps_per_sec_iqr\": "
     << m.steps_per_sec.q3 - m.steps_per_sec.q1;
  return os.str();
}

int run(int argc, const char* const* argv) {
  BenchOptions options;
  options.repeats = 3;  // timed windows per measurement
  std::string task_flag = "mnist";
  std::string algorithm_flag = "middle";
  std::string json_path = "BENCH_step_throughput.json";
  std::size_t timed_steps = 300;
  std::size_t warmup_steps = 20;
  bool serial = false;
  bool no_sweep = false;
  util::CliParser cli(
      "step_throughput: steps/sec of the simulation step loop");
  options.register_flags(cli);
  cli.add_flag("task", "learning task", &task_flag);
  cli.add_flag("algorithm", "algorithm policy", &algorithm_flag);
  cli.add_flag("json", "JSON output path", &json_path);
  cli.add_flag("steps",
               "timed steps per window (--repeats sets the window count)",
               &timed_steps);
  cli.add_flag("warmup", "untimed warmup steps", &warmup_steps);
  cli.add_flag("serial", "disable device-parallel training", &serial);
  cli.add_flag("no-sweep", "skip the thread-scaling sweep", &no_sweep);
  if (!cli.parse(argc, argv)) return 0;
  if (options.repeats == 0 || timed_steps == 0) {
    std::cerr << "error: need positive --repeats and --steps\n";
    return 1;
  }

  bench::print_banner("Step-loop throughput", options);
  const auto kind = data::parse_task(task_flag);
  const auto algorithm = core::parse_algorithm(algorithm_flag);
  const std::size_t windows = options.repeats;

  auto setup = bench::make_task_setup(kind, options);
  // The step budget must cover warmup + timed steps; evals are skipped by
  // calling step() directly, and the per-edge evaluation sweep is off —
  // this bench never reads the edge-accuracy curve.
  setup.sim_cfg.total_steps = warmup_steps + windows * timed_steps;
  setup.sim_cfg.eval_edges = false;

  // Main measurement on the configured pool (--threads / MIDDLEFL_THREADS).
  // Observability (when requested) captures only this measurement, not the
  // sweep; with the flags unset the session is inert and the measured loop
  // runs on the zero-cost disabled path.
  bench::ObsSession obs(options);
  parallel::ThreadPool* main_pool =
      serial ? nullptr : &parallel::ThreadPool::global();
  const Measurement main = measure(setup, algorithm, options, warmup_steps,
                                   timed_steps, windows, main_pool, &obs);
  obs.finish();
  const std::size_t peak_rss = bench::peak_rss_bytes();
  std::cerr << "   " << windows << " windows x " << timed_steps
            << " steps in " << main.seconds << " s  ->  median "
            << main.steps_per_sec.median << " steps/sec [IQR "
            << main.steps_per_sec.q1 << ", " << main.steps_per_sec.q3
            << "]  (" << main.pool_threads << " pool thread"
            << (main.pool_threads == 1 ? "" : "s") << ", peak RSS "
            << peak_rss / (1024 * 1024) << " MiB)\n";

  // Thread-scaling sweep on private pools so the pinned sizes do not
  // disturb the shared pool. Requested sizes beyond the hardware
  // concurrency are clamped: oversubscribing a small host measures
  // scheduler contention, not scaling, and each distinct clamped size only
  // needs to run once — further requested sizes that clamp to the same
  // pool fold into the existing row's `threads_requested` list instead of
  // duplicating the measurement.
  std::vector<Measurement> sweep;
  if (!no_sweep) {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    std::size_t last_run = 0;
    for (const std::size_t n : {1u, 2u, 4u, 8u}) {
      const std::size_t clamped = std::min(n, hw);
      if (clamped == last_run) {
        sweep.back().threads_requested.push_back(n);
        sweep.back().oversubscribed |= n > hw;
        continue;
      }
      std::unique_ptr<parallel::ThreadPool> pool;
      if (clamped > 1) pool = std::make_unique<parallel::ThreadPool>(clamped);
      Measurement m = measure(setup, algorithm, options, warmup_steps,
                              timed_steps, windows, pool.get());
      m.threads_requested = {n};
      m.oversubscribed = n > hw;
      sweep.push_back(std::move(m));
      last_run = clamped;
      std::cerr << "   sweep " << clamped << " thread"
                << (clamped == 1 ? " " : "s")
                << (n > hw ? " (requested " + std::to_string(n) +
                                 ", clamped)"
                           : "")
                << ": median " << sweep.back().steps_per_sec.median
                << " steps/sec\n";
    }
  }

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"step_throughput\",\n"
      << bench::protocol_json(main.pool_threads,
                              {{"repeats", windows},
                               {"warmup_steps", warmup_steps},
                               {"timed_steps", timed_steps},
                               {"seed", options.seed}},
                              "  ")
      << ",\n"
      << "  \"task\": \"" << data::to_string(kind) << "\",\n"
      << "  \"scale\": \"" << (options.paper ? "paper" : "fast") << "\",\n"
      << "  \"algorithm\": \"" << core::to_string(algorithm) << "\",\n"
      << "  \"warmup_steps\": " << warmup_steps << ",\n"
      << "  \"timed_steps\": " << timed_steps << ",\n"
      << "  \"repeats\": " << windows << ",\n"
      << "  " << timing_json(main, "\n  ") << ",\n"
      << "  \"parallel_devices\": " << (serial ? "false" : "true") << ",\n"
      << "  \"peak_rss_bytes\": " << peak_rss << ",\n"
      << bench::json_summary_fields(main.summary, "  ") << ",\n"
      << "  \"thread_sweep\": [";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"threads\": " << sweep[i].pool_threads
        << ", \"threads_requested\": [";
    for (std::size_t r = 0; r < sweep[i].threads_requested.size(); ++r) {
      out << (r == 0 ? "" : ", ") << sweep[i].threads_requested[r];
    }
    out << "], \"oversubscribed\": "
        << (sweep[i].oversubscribed ? "true" : "false") << ", "
        << timing_json(sweep[i], " ") << "}";
  }
  out << (sweep.empty() ? "]\n" : "\n  ]\n") << "}\n";
  std::cerr << "   wrote " << json_path << "\n";
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
