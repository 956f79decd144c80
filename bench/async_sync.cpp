// Sync vs. staleness-bounded semi-async cloud sync (src/comm) under a
// straggler WAN uplink.
//
// Two arms share one task setup, seed and transport policy
// (wan_up.latency_steps delays every edge->cloud upload); the only
// difference is comm.async_cloud. Each arm times every Simulation::step()
// individually — evaluations run outside the timed region — and reports
// the per-step wall-clock distribution (mean/p95/max), the accuracy
// trajectory against the task's Fig-6 target, and the whole-run comm
// accounting. The async arm additionally cross-checks its staleness
// counters against the per-step records (Simulation::last_step()):
// `published` must equal the summed wan_up transfers, `applied` the summed
// contributing_edges of the synced steps, and `applies` the number of
// synced steps. A mismatch fails the bench (exit 1), which is what the CI
// smoke job asserts.
//
// The expected shape: under uplink latency the synchronous stage stalls a
// round behind and still rebroadcasts to every device at each boundary,
// while the async stage applies bounded-stale contributions as they land
// and propagates lazily through edge downloads — same target accuracy,
// less work per step.
//
// The intrinsic per-step cost difference is small (the broadcast installs
// a shared snapshot, not a copy), so a single timed run drowns in system
// noise. The arms therefore run interleaved for --repeats rounds, and each
// arm reports the median and quartiles of its per-repeat mean step times
// (bench::spread_of, as fleet_scale and step_throughput report their
// windows), with p95/max the medians of the per-repeat values. Model
// state, counters and step records are bitwise-identical across repeats,
// so they are taken from repeat 0. The JSON opens with the shared
// protocol header (bench::protocol_json).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace middlefl;
using bench::BenchOptions;

/// Rebuilds the async counters purely from the step records so the bench
/// can assert the Simulation-side accounting agrees with them.
struct RecordTally {
  std::uint64_t wan_up_transfers = 0;
  std::uint64_t contributing_sum = 0;
  std::uint64_t cloud_syncs = 0;

  void add(const obs::StepRecord& record) {
    wan_up_transfers +=
        record.links[static_cast<std::size_t>(transport::LinkKind::kWanUp)]
            .transfers;
    if (record.synced) {
      contributing_sum += record.contributing_edges;
      ++cloud_syncs;
    }
  }
};

/// One repeat of one arm.
struct ArmResult {
  double mean_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
  double final_accuracy = 0.0;
  bool target_reached = false;
  std::size_t target_step = 0;
  RecordTally records;
  bench::SimRunSummary summary;
};

/// Runs one arm: every step timed individually, evaluations (and the
/// time-to-target scan) outside the timed region.
ArmResult run_arm(const bench::TaskSetup& setup, core::Algorithm algorithm,
                  const BenchOptions& options, bool async_cloud,
                  std::size_t max_staleness, bench::ObsSession* obs) {
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
  run_setup.sim_cfg.comm.async_cloud = async_cloud;
  run_setup.sim_cfg.comm.max_staleness = max_staleness;
  auto sim = bench::make_simulation(run_setup, algorithm, options);

  ArmResult arm;
  if (obs != nullptr) obs->attach(*sim);

  const std::size_t steps = run_setup.sim_cfg.total_steps;
  const std::size_t eval_every = std::max<std::size_t>(
      1, run_setup.sim_cfg.eval_every);
  std::vector<double> step_ms;
  step_ms.reserve(steps);
  for (std::size_t t = 1; t <= steps; ++t) {
    const auto start = std::chrono::steady_clock::now();
    sim->step();
    const auto stop = std::chrono::steady_clock::now();
    step_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    arm.records.add(sim->last_step());
    if (t % eval_every == 0 || t == steps) {
      const core::EvalPoint& point = sim->evaluate_now();
      arm.final_accuracy = point.accuracy;
      if (!arm.target_reached && point.accuracy >= setup.target_accuracy) {
        arm.target_reached = true;
        arm.target_step = t;
      }
    }
  }
  if (obs != nullptr) obs->collect(*sim);
  arm.summary = bench::SimRunSummary::capture(*sim);

  double total_ms = 0.0;
  for (double ms : step_ms) total_ms += ms;
  arm.mean_ms = total_ms / static_cast<double>(step_ms.size());
  std::vector<double> sorted = step_ms;
  std::sort(sorted.begin(), sorted.end());
  arm.p95_ms = sorted[(sorted.size() * 95) / 100 == sorted.size()
                          ? sorted.size() - 1
                          : (sorted.size() * 95) / 100];
  arm.max_ms = sorted.back();
  return arm;
}

/// An arm over every repeat: counters, records and accuracy from repeat 0
/// (bitwise equal in every repeat), timings as medians over the repeats.
struct ArmSummary {
  explicit ArmSummary(std::vector<ArmResult> runs) : first(runs.front()) {
    std::vector<double> p95, max;
    for (const ArmResult& run : runs) {
      repeat_means_ms.push_back(run.mean_ms);
      p95.push_back(run.p95_ms);
      max.push_back(run.max_ms);
    }
    step_ms = bench::spread_of(repeat_means_ms);
    p95_ms = bench::spread_of(p95).median;
    max_ms = bench::spread_of(max).median;
  }

  ArmResult first;
  std::vector<double> repeat_means_ms;
  bench::Spread step_ms;  // of the per-repeat mean step times
  double p95_ms = 0.0;
  double max_ms = 0.0;
};

void print_arm(const char* name, const ArmSummary& arm) {
  const ArmResult& first = arm.first;
  std::cerr << "   " << name << ": " << arm.step_ms.median
            << " ms/step (median of " << arm.repeat_means_ms.size()
            << " repeat means, IQR [" << arm.step_ms.q1 << ", "
            << arm.step_ms.q3 << "], p95 " << arm.p95_ms << ", max "
            << arm.max_ms << "), final accuracy " << first.final_accuracy;
  if (first.target_reached) {
    std::cerr << ", target @ step " << first.target_step;
  } else {
    std::cerr << ", target not reached";
  }
  std::cerr << "\n";
}

void emit_arm(std::ostream& out, const char* name, const ArmSummary& arm,
              double target_accuracy) {
  const ArmResult& first = arm.first;
  out << "  \"" << name << "\": {\n"
      << "    \"repeat_means_ms\": [";
  for (std::size_t i = 0; i < arm.repeat_means_ms.size(); ++i) {
    out << (i == 0 ? "" : ", ") << arm.repeat_means_ms[i];
  }
  out << "],\n"
      << "    \"step_ms_median\": " << arm.step_ms.median << ",\n"
      << "    \"step_ms_q1\": " << arm.step_ms.q1 << ",\n"
      << "    \"step_ms_q3\": " << arm.step_ms.q3 << ",\n"
      << "    \"step_ms_iqr\": " << arm.step_ms.q3 - arm.step_ms.q1 << ",\n"
      << "    \"step_ms_p95\": " << arm.p95_ms << ",\n"
      << "    \"step_ms_max\": " << arm.max_ms << ",\n"
      << "    \"steps_per_sec\": " << 1000.0 / arm.step_ms.median << ",\n"
      << "    \"final_accuracy\": " << first.final_accuracy << ",\n"
      << "    \"target_accuracy\": " << target_accuracy << ",\n"
      << "    \"target_reached\": "
      << (first.target_reached ? "true" : "false") << ",\n"
      << "    \"target_step\": " << first.target_step << ",\n"
      << "    \"event_wan_up_transfers\": " << first.records.wan_up_transfers
      << ",\n"
      << "    \"event_contributing_sum\": " << first.records.contributing_sum
      << ",\n"
      << "    \"event_cloud_syncs\": " << first.records.cloud_syncs << ",\n"
      << bench::json_summary_fields(first.summary, "    ") << "\n"
      << "  }";
}

int run(int argc, const char* const* argv) {
  BenchOptions options;
  options.repeats = 3;  // interleaved timing repeats; results are bitwise
                        // identical across them, only the clock differs
  std::string task_flag = "mnist";
  std::string json_path = "BENCH_async_sync.json";
  std::size_t steps = 0;
  std::size_t wan_latency = 1;
  double broadcast_topk = 0.1;
  std::size_t max_staleness = 1;
  bool fast = false;
  util::CliParser cli(
      "async_sync: sync vs staleness-bounded async cloud sync under a "
      "straggler WAN uplink");
  options.register_flags(cli);
  cli.add_flag("task", "learning task", &task_flag);
  cli.add_flag("json", "JSON output path", &json_path);
  cli.add_flag("steps", "steps per arm (0 = task default)", &steps);
  cli.add_flag("wan-latency", "wan_up latency in steps (straggler policy)",
               &wan_latency);
  cli.add_flag("broadcast-topk",
               "top-k fraction on the device broadcast (0 = lossless)",
               &broadcast_topk);
  cli.add_flag("max-staleness", "async staleness bound in cloud rounds",
               &max_staleness);
  cli.add_flag("fast", "short smoke run for CI (60 steps per arm)", &fast);
  if (!cli.parse(argc, argv)) return 0;

  bench::print_banner("Sync vs async cloud sync", options);
  const auto kind = data::parse_task(task_flag);
  const auto algorithm = core::Algorithm::kMiddle;

  auto setup = bench::make_task_setup(kind, options);
  if (fast && steps == 0) steps = 60;
  if (steps != 0) {
    setup.sim_cfg.total_steps = steps;
    setup.sim_cfg.eval_every = std::max<std::size_t>(1, steps / 40);
  }
  // Both arms run the same straggler link policy: every edge->cloud upload
  // is delayed, so the synchronous boundary always aggregates stale models
  // while the async stage absorbs the same lag without the barrier; the
  // fleet broadcast channel is top-k constrained, so the sync boundary pays
  // a compressed full-fleet push every round — the async mode never uses
  // that channel (the global model reaches devices lazily through the
  // per-step edge downloads instead).
  setup.sim_cfg.transport.wan_up.latency_steps = wan_latency;
  if (broadcast_topk > 0.0) {
    setup.sim_cfg.transport.broadcast.compression.kind =
        transport::CompressionKind::kTopK;
    setup.sim_cfg.transport.broadcast.compression.top_k_fraction =
        broadcast_topk;
  }
  setup.sim_cfg.eval_edges = false;

  // Interleave the arms so slow system phases hit both equally.
  // Observability captures the first repeat.
  bench::ObsSession obs(options);
  if (fast && options.repeats == 3) options.repeats = 1;
  const std::size_t repeats = std::max<std::size_t>(1, options.repeats);
  std::vector<ArmResult> sync_runs, async_runs;
  for (std::size_t r = 0; r < repeats; ++r) {
    bench::ObsSession* session = r == 0 ? &obs : nullptr;
    sync_runs.push_back(
        run_arm(setup, algorithm, options, false, max_staleness, session));
    async_runs.push_back(
        run_arm(setup, algorithm, options, true, max_staleness, session));
  }
  const ArmSummary sync_arm(std::move(sync_runs));
  const ArmSummary async_arm(std::move(async_runs));
  print_arm("sync ", sync_arm);
  print_arm("async", async_arm);
  obs.finish();

  // The async counters must be reconstructible from the step records alone.
  bool cross_check_ok = true;
  const bench::SimRunSummary& as = async_arm.first.summary;
  auto check = [&](const char* what, std::uint64_t counter,
                   std::uint64_t from_records) {
    if (counter == from_records) return;
    cross_check_ok = false;
    std::cerr << "   CROSS-CHECK FAILED: " << what << " counter " << counter
              << " != " << from_records << " from step records\n";
  };
  check("async_published vs wan_up transfers", as.async_published,
        async_arm.first.records.wan_up_transfers);
  check("async_applied vs sum(contributing_edges)", as.async_applied,
        async_arm.first.records.contributing_sum);
  check("async_applies vs synced steps", as.async_applies,
        async_arm.first.records.cloud_syncs);
  if (sync_arm.first.summary.async_published != 0) {
    cross_check_ok = false;
    std::cerr << "   CROSS-CHECK FAILED: sync arm published "
              << sync_arm.first.summary.async_published
              << " async contributions\n";
  }

  const double async_ms = async_arm.step_ms.median;
  const double speedup =
      async_ms > 0.0 ? sync_arm.step_ms.median / async_ms : 0.0;
  std::cerr << "   per-step speedup (sync median / async median): " << speedup
            << ", cross-check " << (cross_check_ok ? "ok" : "FAILED") << "\n";

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"async_sync\",\n"
      << bench::protocol_json(parallel::ThreadPool::global().size(),
                              {{"repeats", repeats}, {"seed", options.seed}},
                              "  ")
      << ",\n"
      << "  \"task\": \"" << data::to_string(kind) << "\",\n"
      << "  \"scale\": \"" << (options.paper ? "paper" : "fast") << "\",\n"
      << "  \"steps\": " << setup.sim_cfg.total_steps << ",\n"
      << "  \"wan_up_latency_steps\": " << wan_latency << ",\n"
      << "  \"broadcast_topk_fraction\": " << broadcast_topk << ",\n"
      << "  \"max_staleness\": " << max_staleness << ",\n"
      << "  \"async_step_speedup\": " << speedup << ",\n"
      << "  \"cross_check_ok\": " << (cross_check_ok ? "true" : "false")
      << ",\n";
  emit_arm(out, "sync", sync_arm, setup.target_accuracy);
  out << ",\n";
  emit_arm(out, "async", async_arm, setup.target_accuracy);
  out << "\n}\n";
  std::cerr << "   wrote " << json_path << "\n";
  return cross_check_ok ? 0 : 1;
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
