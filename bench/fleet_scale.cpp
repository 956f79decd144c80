// Fleet-scale memory/throughput bench: how far does lazy device state
// stretch one host?
//
// Sweeps the fleet size (default 10k -> 100k -> 1M virtual devices) over a
// fixed tiny task: random-selection FedMes-style hierarchy,
// window-partitioned synthetic data (O(1) per-device data state), a small
// MLP. Per configuration it times --repeats consecutive windows (default
// and minimum 3) of --steps steps each, rounded up to a whole number of
// cloud intervals so every window holds the same number of syncs, and
// reports the median and interquartile range of the per-window steps/sec.
// It also records the set-up wall time (`setup_s`, split into the data
// part — partition and initial edges — and the construction part —
// mobility model and Simulation), the RSS high-water mark (VmHWM,
// re-armed per configuration via /proc/self/clear_refs) and its delta per
// device, the
// registry's fleet accounting (materializations per step, peak devices
// holding their own copy), plus the 10k -> 1M per-step cost ratio of the
// medians.
// The per-phase breakdown (`phase_us`) comes from one full cloud interval
// of observed probe steps after the timed windows, so it holds exactly one
// sync and its `cloud_sync` entry is that sync's cost averaged per step.
//
// The JSON opens with the shared protocol header (bench::protocol_json):
// build and host fields plus the window plan, mobility and seed.
//
// CI smoke: --devices 100000 --rss-budget-mb N runs the single
// configuration and fails (exit 1) when its peak RSS delta exceeds the
// budget.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using middlefl::bench::BenchOptions;
using middlefl::bench::Spread;
using middlefl::bench::spread_of;

struct FleetMeasurement {
  std::size_t devices = 0;
  std::size_t window_steps = 0;
  /// Steps/sec of each timed window, in run order.
  std::vector<double> window_steps_per_sec;
  Spread steps_per_sec;
  double seconds = 0.0;  // all timed windows
  /// Set-up wall seconds: the partition and initial edge assignment
  /// (data), then the mobility model and the Simulation (construct).
  double setup_data_s = 0.0;
  double setup_construct_s = 0.0;
  /// Mean per-phase wall microseconds over the observed probe window that
  /// follows the bare timed loop (the timed window itself runs obs-off).
  /// The window is one full cloud interval, so it holds exactly one sync
  /// and `cloud_sync` is that sync's cost averaged per step.
  middlefl::core::Simulation::StepPhaseUs phase_us;
  std::size_t probe_steps = 0;
  std::size_t rss_before_bytes = 0;
  std::size_t peak_rss_bytes = 0;
  std::size_t peak_delta_bytes = 0;
  double materializations_per_step = 0.0;
  /// Whole-run comm/transport/dropout/fleet accounting (shared capture;
  /// the fleet fields the sweep reports are read from here).
  middlefl::bench::SimRunSummary summary;
};

struct FleetTask {
  middlefl::data::Dataset train;
  middlefl::data::Dataset test;
  middlefl::nn::ModelSpec model_spec;

  FleetTask() : train(make_data(240, 0)), test(make_data(80, 1)) {
    model_spec.arch = middlefl::nn::ModelArch::kMlp;
    model_spec.input_shape = middlefl::tensor::Shape{1, 6, 6};
    model_spec.num_classes = 4;
    model_spec.hidden = 16;
  }

  static middlefl::data::Dataset make_data(std::size_t per_class,
                                           std::uint64_t salt) {
    middlefl::data::SyntheticConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.height = 6;
    dcfg.width = 6;
    dcfg.noise_std = 0.2f;
    dcfg.seed = 5;
    return middlefl::data::SyntheticGenerator(dcfg).generate(per_class, salt);
  }
};

FleetMeasurement run_config(const FleetTask& task, std::size_t devices,
                            std::size_t window_steps, std::size_t windows,
                            std::size_t num_edges,
                            const BenchOptions& options) {
  namespace core = middlefl::core;
  namespace data = middlefl::data;
  using middlefl::bench::current_rss_bytes;
  using middlefl::bench::peak_rss_bytes;
  using middlefl::bench::reset_peak_rss;

  FleetMeasurement m;
  m.devices = devices;
  m.window_steps = window_steps;
  const std::size_t steps = window_steps * windows;

  reset_peak_rss();
  m.rss_before_bytes = current_rss_bytes();

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
  };
  const auto setup_begin = Clock::now();
  const data::Partition partition =
      data::partition_fleet_window(task.train, devices, 16);
  auto initial = data::assign_edges_uniform(devices, num_edges, options.seed);
  m.setup_data_s = seconds_since(setup_begin);
  const auto construct_begin = Clock::now();
  auto mobility = std::make_unique<middlefl::mobility::MarkovMobility>(
      std::move(initial), num_edges, options.mobility, options.seed + 11);

  core::SimulationConfig cfg;
  cfg.select_per_edge = 4;
  cfg.local_steps = 2;
  cfg.cloud_interval = options.cloud_interval;
  cfg.batch_size = 8;
  cfg.total_steps = steps;
  cfg.eval_edges = false;
  cfg.seed = options.seed;
  // --threads N > 1 engages the pooled paths (sharded mobility advance,
  // parallel training); results are bitwise identical either way.
  cfg.parallel_devices = options.threads > 1;

  middlefl::optim::Sgd optimizer(
      middlefl::optim::SgdConfig{.learning_rate = 0.05, .momentum = 0.9});
  core::Simulation sim(cfg, task.model_spec, optimizer, task.train, partition,
                       task.test, std::move(mobility),
                       core::make_algorithm(core::Algorithm::kFedMes));
  m.setup_construct_s = seconds_since(construct_begin);

  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = Clock::now();
    for (std::size_t s = 0; s < window_steps; ++s) sim.step();
    const double seconds = seconds_since(begin);
    m.seconds += seconds;
    m.window_steps_per_sec.push_back(
        seconds > 0.0 ? static_cast<double>(window_steps) / seconds : 0.0);
  }
  m.steps_per_sec = spread_of(m.window_steps_per_sec);

  m.peak_rss_bytes = peak_rss_bytes();
  m.peak_delta_bytes = m.peak_rss_bytes > m.rss_before_bytes
                           ? m.peak_rss_bytes - m.rss_before_bytes
                           : 0;

  m.summary = middlefl::bench::SimRunSummary::capture(sim);
  m.materializations_per_step =
      static_cast<double>(m.summary.materializations) /
      static_cast<double>(steps);

  // Where do the steps go? Attach a metrics registry (the cheapest
  // observability; phase clocks only run while obs is on) for one full
  // cloud interval of probe steps — any T_c consecutive steps hold exactly
  // one sync — and average the per-phase wall time per step. Probes run
  // after the timed windows, the RSS peak read and the summary capture, so
  // they contaminate none of them.
  m.probe_steps = cfg.cloud_interval;
  {
    middlefl::obs::MetricsRegistry probe_metrics;
    middlefl::obs::Observability probe;
    probe.metrics = &probe_metrics;
    sim.set_observability(probe);
    for (std::size_t s = 0; s < m.probe_steps; ++s) {
      sim.step();
      const auto& p = sim.last_step_phase_us();
      m.phase_us.mobility += p.mobility;
      m.phase_us.membership += p.membership;
      m.phase_us.select += p.select;
      m.phase_us.distribute += p.distribute;
      m.phase_us.local_train += p.local_train;
      m.phase_us.upload += p.upload;
      m.phase_us.edge_aggregate += p.edge_aggregate;
      m.phase_us.cloud_sync += p.cloud_sync;
    }
    sim.set_observability(middlefl::obs::Observability{});
    const auto steps_d = static_cast<double>(m.probe_steps);
    m.phase_us.mobility /= steps_d;
    m.phase_us.membership /= steps_d;
    m.phase_us.select /= steps_d;
    m.phase_us.distribute /= steps_d;
    m.phase_us.local_train /= steps_d;
    m.phase_us.upload /= steps_d;
    m.phase_us.edge_aggregate /= steps_d;
    m.phase_us.cloud_sync /= steps_d;
  }
  return m;
}

void print_row(const FleetMeasurement& m) {
  std::cerr << "   lazy " << m.devices << " devices: "
            << m.window_steps_per_sec.size() << " windows x "
            << m.window_steps << " steps, median "
            << m.steps_per_sec.median << " steps/sec [IQR "
            << m.steps_per_sec.q1 << ", " << m.steps_per_sec.q3
            << "], set-up " << (m.setup_data_s + m.setup_construct_s) * 1e3
            << " ms (data " << m.setup_data_s * 1e3 << ", construct "
            << m.setup_construct_s * 1e3 << "), peak RSS +"
            << m.peak_delta_bytes / (1024 * 1024) << " MiB ("
            << static_cast<double>(m.peak_delta_bytes) /
                   static_cast<double>(m.devices)
            << " B/device), "
            << m.materializations_per_step << " materializations/step\n"
            << "      phase us/step over " << m.probe_steps
            << " probe steps (one sync): mobility " << m.phase_us.mobility
            << " membership " << m.phase_us.membership << " select "
            << m.phase_us.select << " distribute " << m.phase_us.distribute
            << " train " << m.phase_us.local_train << " upload "
            << m.phase_us.upload << " edge_agg " << m.phase_us.edge_aggregate
            << " cloud_sync " << m.phase_us.cloud_sync << "\n";
}

void emit_json(std::ostream& out, const FleetMeasurement& m, bool last) {
  out << "    {\n"
      << "      \"mode\": \"lazy\",\n"
      << "      \"devices\": " << m.devices << ",\n"
      << "      \"window_steps\": " << m.window_steps << ",\n"
      << "      \"window_steps_per_sec\": [";
  for (std::size_t w = 0; w < m.window_steps_per_sec.size(); ++w) {
    out << (w == 0 ? "" : ", ") << m.window_steps_per_sec[w];
  }
  out << "],\n"
      << "      \"seconds\": " << m.seconds << ",\n"
      << "      \"setup_s\": " << m.setup_data_s + m.setup_construct_s
      << ",\n"
      << "      \"setup_data_s\": " << m.setup_data_s << ",\n"
      << "      \"setup_construct_s\": " << m.setup_construct_s << ",\n"
      << "      \"steps_per_sec\": " << m.steps_per_sec.median << ",\n"
      << "      \"steps_per_sec_q1\": " << m.steps_per_sec.q1 << ",\n"
      << "      \"steps_per_sec_q3\": " << m.steps_per_sec.q3 << ",\n"
      << "      \"steps_per_sec_iqr\": "
      << m.steps_per_sec.q3 - m.steps_per_sec.q1 << ",\n"
      << "      \"rss_before_bytes\": " << m.rss_before_bytes << ",\n"
      << "      \"peak_rss_bytes\": " << m.peak_rss_bytes << ",\n"
      << "      \"peak_delta_bytes\": " << m.peak_delta_bytes << ",\n"
      << "      \"peak_delta_bytes_per_device\": "
      << static_cast<double>(m.peak_delta_bytes) /
             static_cast<double>(m.devices)
      << ",\n"
      << "      \"materializations_per_step\": "
      << m.materializations_per_step << ",\n"
      << "      \"phase_probe_steps\": " << m.probe_steps << ",\n"
      << "      \"phase_us\": {"
      << "\"mobility\": " << m.phase_us.mobility
      << ", \"membership\": " << m.phase_us.membership
      << ", \"select\": " << m.phase_us.select
      << ", \"distribute\": " << m.phase_us.distribute
      << ", \"local_train\": " << m.phase_us.local_train
      << ", \"upload\": " << m.phase_us.upload
      << ", \"edge_aggregate\": " << m.phase_us.edge_aggregate
      << ", \"cloud_sync\": " << m.phase_us.cloud_sync << "},\n"
      << middlefl::bench::json_summary_fields(m.summary, "      ") << "\n"
      << "    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  namespace bench = middlefl::bench;
  namespace util = middlefl::util;

  BenchOptions options;
  options.cloud_interval = 5;
  options.mobility = 0.1;
  options.repeats = 3;  // timed windows per configuration
  std::string json_path = "BENCH_fleet_scale.json";
  std::size_t single_devices = 0;
  std::size_t rss_budget_mb = 0;
  std::size_t steps = 10;
  std::size_t num_edges = 8;

  util::CliParser cli(
      "fleet_scale: fleet-size sweep over lazy device state");
  options.register_flags(cli);
  cli.add_flag("json", "JSON output path", &json_path);
  cli.add_flag("devices",
               "run one configuration at this fleet size instead of the "
               "full sweep (CI smoke)",
               &single_devices);
  cli.add_flag("rss-budget-mb",
               "fail when a configuration's peak RSS delta exceeds this "
               "budget (0 = no assertion)",
               &rss_budget_mb);
  cli.add_flag("steps",
               "timed steps per window, rounded up to whole cloud "
               "intervals (--repeats sets the window count, at least 3)",
               &steps);
  cli.add_flag("edges", "number of edge servers", &num_edges);
  if (!cli.parse(argc, argv)) return 0;
  if (options.repeats < 3 || steps == 0 || options.cloud_interval == 0) {
    std::cerr << "error: need --repeats >= 3 and positive --steps and --tc\n";
    return 1;
  }
  const std::size_t window_steps =
      (steps + options.cloud_interval - 1) / options.cloud_interval *
      options.cloud_interval;
  bench::print_banner("fleet_scale: lazy device state sweep", options);

  const FleetTask task;
  std::vector<FleetMeasurement> results;
  // Ascending fleet sizes: the cheap runs are never contaminated by a
  // bigger predecessor's retained allocator arena.
  const std::vector<std::size_t> sizes =
      single_devices > 0
          ? std::vector<std::size_t>{single_devices}
          : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  for (const std::size_t n : sizes) {
    results.push_back(
        run_config(task, n, window_steps, options.repeats, num_edges, options));
    print_row(results.back());
  }

  const FleetMeasurement* lazy_10k = nullptr;
  const FleetMeasurement* lazy_1m = nullptr;
  for (const auto& m : results) {
    if (m.devices == 10'000) lazy_10k = &m;
    if (m.devices == 1'000'000) lazy_1m = &m;
  }

  // Sublinear-stepping readout: growing the fleet 100x should cost far
  // less than 100x per step now that per-step work tracks movers and
  // selected devices rather than the full fleet.
  double step_cost_ratio = 0.0;
  if (lazy_10k != nullptr && lazy_1m != nullptr &&
      lazy_1m->steps_per_sec.median > 0.0) {
    step_cost_ratio =
        lazy_10k->steps_per_sec.median / lazy_1m->steps_per_sec.median;
    std::cerr << "   scaling: 100x devices (10k -> 1M) costs "
              << step_cost_ratio << "x per step\n";
  }

  bool budget_pass = true;
  if (rss_budget_mb > 0) {
    const std::size_t budget = rss_budget_mb * 1024 * 1024;
    for (const auto& m : results) {
      if (m.peak_delta_bytes > budget) {
        std::cerr << "   RSS budget exceeded: " << m.devices
                  << " devices peaked at +"
                  << m.peak_delta_bytes / (1024 * 1024) << " MiB > "
                  << rss_budget_mb << " MiB\n";
        budget_pass = false;
      }
    }
  }

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  const bool pooled = options.threads > 1;
  out << "{\n"
      << "  \"bench\": \"fleet_scale\",\n"
      << bench::protocol_json(
             pooled ? middlefl::parallel::ThreadPool::global().size() : 1,
             {{"windows", options.repeats},
              {"window_steps", window_steps},
              {"cloud_interval", options.cloud_interval},
              {"mobility", options.mobility},
              {"seed", options.seed}},
             "  ")
      << ",\n"
      << "  \"edges\": " << num_edges << ",\n"
      << "  \"select_per_edge\": 4,\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    emit_json(out, results[i], i + 1 == results.size());
  }
  out << "  ]";
  if (lazy_10k != nullptr && lazy_1m != nullptr) {
    out << ",\n  \"scaling\": {\"lazy_10k_steps_per_sec\": "
        << lazy_10k->steps_per_sec.median
        << ", \"lazy_1m_steps_per_sec\": " << lazy_1m->steps_per_sec.median
        << ", \"device_ratio\": 100, \"per_step_cost_ratio\": "
        << step_cost_ratio << "}";
  }
  out << "\n}\n";
  std::cerr << "   wrote " << json_path << "\n";
  return budget_pass ? 0 : 1;
}
