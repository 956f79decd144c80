// Serving load bench: QPS and latency of the edge inference path while
// Fig-6 training runs concurrently on the SAME thread pool.
//
// Two driver modes (--mode): `open` (default) paces requests at a fixed
// offered rate with a bounded in-flight ring per client, so queue depth —
// and therefore batch coalescing — builds whenever the serving path falls
// behind the offered load; `closed` keeps one outstanding request per
// client, which bounds occupancy by the client count (on a single-core
// host submits serialize with drains and batches rarely form — the
// batched/unbatched gap is an open-mode measurement).
//
// Protocol — interleaved A/B: the run alternates measurement windows
// between the batched arm (max_batch from the serving config) and the
// unbatched baseline (max_batch = 1), e.g. A B A B A B for --windows 3.
// Interleaving means slow drift (thermal, page cache, competing load)
// lands on both arms symmetrically instead of biasing whichever arm runs
// last. Each window: the load generator's client threads submit
// single-sample requests against every edge while the main thread drives
// --steps-per-window training steps; the window closes by stopping the
// clients and quiescing the hub, so arms never bleed into each other.
// Training republishes every edge aggregate into the serving hub
// throughout, so the hot-swap path is exercised at full training rate.
//
// Figures of merit, emitted as JSON (default BENCH_serving_load.json)
// after the shared protocol header (bench::protocol_json, with the
// interleaving parameters above as its run fields): per-arm QPS + exact
// client-side p50/p95/p99 latency, batched/unbatched
// QPS speedup (the acceptance gate: >= 1.3x), a QPS-vs-latency sweep
// (batched arm; offered-load steps in open mode, client counts in closed
// mode), and the shared training summary block.
//
// Histogram cross-check: every window (arm windows and sweep rows) takes a
// serve.latency_us snapshot before it starts and after the hub quiesces.
// The bucket-wise delta holds exactly the requests that window served, so
// it must equal the window's client latencies bucketed the same way (both
// sides read ServeTicket::latency_us()). Each arm and sweep row reports
// the delta's quantile() estimates next to its exact client percentiles;
// the bench exits nonzero when any window's delta differs.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/load_gen.hpp"
#include "serve/serving.hpp"

namespace {

using namespace middlefl;
using bench::BenchOptions;

/// Exact percentile (linear interpolation between order statistics) of a
/// SORTED sample.
double pct(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

using Histogram = obs::MetricsRegistry::HistogramSnapshot;

/// The serve.latency_us histogram as of now.
Histogram latency_histogram(const obs::MetricsRegistry& metrics) {
  obs::MetricsRegistry::Snapshot snapshot = metrics.snapshot();
  for (Histogram& hist : snapshot.histograms) {
    if (hist.name == "serve.latency_us") return std::move(hist);
  }
  throw std::runtime_error("serve.latency_us is not registered");
}

/// The requests served between two snapshots, bucket by bucket.
Histogram window_delta(const Histogram& before, const Histogram& after) {
  Histogram delta = after;
  for (std::size_t b = 0; b < delta.counts.size(); ++b) {
    delta.counts[b] -= before.counts[b];
  }
  delta.count -= before.count;
  delta.sum -= before.sum;
  return delta;
}

/// True when `latencies_us`, bucketed by the registry's rule (the first
/// bound >= value, else overflow), fill exactly the delta's buckets.
bool matches_client(const Histogram& delta,
                    const std::vector<double>& latencies_us) {
  std::vector<std::uint64_t> counts(delta.bounds.size() + 1, 0);
  for (const double us : latencies_us) {
    ++counts[static_cast<std::size_t>(
        std::lower_bound(delta.bounds.begin(), delta.bounds.end(), us) -
        delta.bounds.begin())];
  }
  return counts == delta.counts;
}

/// One arm's accumulated measurement across its interleaved windows.
struct Arm {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double wall_seconds = 0.0;
  std::vector<double> latencies_us;
  std::uint64_t batches = 0;  // hub predict() calls attributed to this arm
  std::uint64_t served = 0;
  /// Summed per-window serve.latency_us deltas.
  Histogram server;
  /// Windows whose delta differed from their client latencies.
  std::size_t mismatched_windows = 0;

  void absorb(const serve::LoadGenerator::Window& window,
              const Histogram& delta) {
    completed += window.completed;
    rejected += window.rejected;
    wall_seconds += window.wall_seconds;
    latencies_us.insert(latencies_us.end(), window.latencies_us.begin(),
                        window.latencies_us.end());
    if (!matches_client(delta, window.latencies_us)) ++mismatched_windows;
    if (server.counts.empty()) {
      server = delta;
    } else {
      for (std::size_t b = 0; b < server.counts.size(); ++b) {
        server.counts[b] += delta.counts[b];
      }
      server.count += delta.count;
      server.sum += delta.sum;
    }
  }
  double qps() const {
    return wall_seconds > 0.0 ? static_cast<double>(completed) / wall_seconds
                              : 0.0;
  }
  double mean_occupancy() const {
    return batches > 0
               ? static_cast<double>(served) / static_cast<double>(batches)
               : 0.0;
  }
};

std::string arm_json(Arm& arm, const std::string& indent) {
  std::sort(arm.latencies_us.begin(), arm.latencies_us.end());
  double mean = 0.0;
  for (const double v : arm.latencies_us) mean += v;
  if (!arm.latencies_us.empty()) {
    mean /= static_cast<double>(arm.latencies_us.size());
  }
  std::ostringstream out;
  out << "{\n"
      << indent << "  \"completed\": " << arm.completed << ",\n"
      << indent << "  \"rejected\": " << arm.rejected << ",\n"
      << indent << "  \"wall_seconds\": " << arm.wall_seconds << ",\n"
      << indent << "  \"qps\": " << arm.qps() << ",\n"
      << indent << "  \"latency_mean_us\": " << mean << ",\n"
      << indent << "  \"latency_p50_us\": " << pct(arm.latencies_us, 0.50)
      << ",\n"
      << indent << "  \"latency_p95_us\": " << pct(arm.latencies_us, 0.95)
      << ",\n"
      << indent << "  \"latency_p99_us\": " << pct(arm.latencies_us, 0.99)
      << ",\n"
      << indent << "  \"histogram_p50_us\": " << arm.server.quantile(0.50)
      << ",\n"
      << indent << "  \"histogram_p95_us\": " << arm.server.quantile(0.95)
      << ",\n"
      << indent << "  \"histogram_p99_us\": " << arm.server.quantile(0.99)
      << ",\n"
      << indent << "  \"histogram_matches_client\": "
      << (arm.mismatched_windows == 0 ? "true" : "false") << ",\n"
      << indent << "  \"batches\": " << arm.batches << ",\n"
      << indent << "  \"mean_batch_occupancy\": " << arm.mean_occupancy()
      << "\n"
      << indent << "}";
  return out.str();
}

int run(int argc, const char* const* argv) {
  BenchOptions options;
  std::string task_flag = "mnist";
  std::string algorithm_flag = "middle";
  std::string json_path = "BENCH_serving_load.json";
  std::string mode_flag = "open";
  std::size_t steps_per_window = 40;
  std::size_t warmup_steps = 10;
  std::size_t windows = 3;
  std::size_t clients = 2;
  std::size_t serve_edges = 1;
  std::size_t max_batch = 16;
  double offered_qps = 200000.0;
  bool no_sweep = false;
  util::CliParser cli(
      "serving_load: edge inference QPS/latency under concurrent training");
  options.register_flags(cli);
  cli.add_flag("task", "learning task", &task_flag);
  cli.add_flag("algorithm", "algorithm policy", &algorithm_flag);
  cli.add_flag("json", "JSON output path", &json_path);
  cli.add_flag("mode", "load mode: closed | open", &mode_flag);
  cli.add_flag("steps-per-window", "training steps per measurement window",
               &steps_per_window);
  cli.add_flag("warmup", "untimed warmup training steps", &warmup_steps);
  cli.add_flag("windows", "A/B window pairs", &windows);
  cli.add_flag("clients", "load-generator client threads", &clients);
  cli.add_flag("serve-edges",
               "edges the clients target (0 = all; few edges = deeper "
               "coalescing)",
               &serve_edges);
  cli.add_flag("max-batch", "coalescing cap for the batched arm", &max_batch);
  cli.add_flag("offered-qps", "open mode: total offered request rate",
               &offered_qps);
  cli.add_flag("no-sweep", "skip the QPS-vs-latency client sweep", &no_sweep);
  if (!cli.parse(argc, argv)) return 0;
  if (mode_flag != "closed" && mode_flag != "open") {
    std::cerr << "error: --mode must be closed or open\n";
    return 1;
  }
  if (windows == 0 || steps_per_window == 0 || clients == 0) {
    std::cerr << "error: --windows/--steps-per-window/--clients must be >=1\n";
    return 1;
  }

  bench::print_banner("Serving load (QPS/latency)", options);
  const auto kind = data::parse_task(task_flag);
  const auto algorithm = core::parse_algorithm(algorithm_flag);

  // QPS-vs-latency sweep points: open mode walks the offered load up to
  // the configured rate (the classic load/latency curve); closed mode
  // walks the client count (concurrency-limited curve).
  struct SweepPoint {
    std::size_t clients = 0;
    double offered_qps = 0.0;
  };
  std::vector<SweepPoint> sweep_points;
  if (!no_sweep) {
    if (mode_flag == "open") {
      for (const double f : {0.125, 0.25, 0.5, 1.0}) {
        sweep_points.push_back(SweepPoint{clients, offered_qps * f});
      }
    } else {
      for (const std::size_t c : {1u, 2u, 4u, 8u}) {
        sweep_points.push_back(SweepPoint{c, 0.0});
      }
    }
  }

  auto setup = bench::make_task_setup(kind, options);
  parallel::ThreadPool& pool = parallel::ThreadPool::global();
  setup.sim_cfg.total_steps =
      warmup_steps + 2 * windows * steps_per_window +
      sweep_points.size() * steps_per_window;
  setup.sim_cfg.eval_edges = false;
  setup.sim_cfg.parallel_devices = true;
  setup.sim_cfg.pool = &pool;
  setup.sim_cfg.serving.enabled = true;
  setup.sim_cfg.serving.max_batch = max_batch;

  bench::ObsSession obs(options);
  auto sim = bench::make_simulation(setup, algorithm, options);
  obs.attach(*sim);

  // The hub gets its own MetricsRegistry regardless of --metrics-out so
  // the JSON can cross-check the exact client-side percentiles against
  // the fixed-bucket quantile() estimates.
  obs::MetricsRegistry serve_metrics;
  obs::Observability serve_obs;
  serve_obs.metrics = &serve_metrics;
  serve_obs.trace = obs.trace();
  serve::ServingHub hub(setup.sim_cfg.serving, setup.num_edges,
                        setup.model_spec, &pool);
  hub.set_observability(serve_obs);
  sim->set_edge_model_sink(&hub);  // publishes every edge's current model

  serve::LoadGenerator::Options gen_options;
  gen_options.clients = clients;
  gen_options.open_loop = mode_flag == "open";
  gen_options.offered_qps = offered_qps;
  gen_options.target_edges = serve_edges;
  serve::LoadGenerator generator(hub, *setup.test, gen_options);

  for (std::size_t s = 0; s < warmup_steps; ++s) sim->step();

  // Interleaved A/B windows: batched first, then unbatched, repeated.
  Arm batched;
  Arm unbatched;
  std::size_t trained_steps = warmup_steps;
  for (std::size_t w = 0; w < windows; ++w) {
    for (const bool is_batched : {true, false}) {
      Arm& arm = is_batched ? batched : unbatched;
      hub.set_max_batch(is_batched ? max_batch : 1);
      const serve::ServingHub::Stats before = hub.stats();
      const Histogram hist_before = latency_histogram(serve_metrics);
      generator.start();
      for (std::size_t s = 0; s < steps_per_window; ++s) sim->step();
      const serve::LoadGenerator::Window window = generator.stop();
      hub.quiesce();
      arm.absorb(window, window_delta(hist_before,
                                      latency_histogram(serve_metrics)));
      const serve::ServingHub::Stats after = hub.stats();
      arm.batches += after.batches - before.batches;
      arm.served += after.served - before.served;
      trained_steps += steps_per_window;
    }
  }
  const double speedup =
      unbatched.qps() > 0.0 ? batched.qps() / unbatched.qps() : 0.0;
  std::cerr << "   batched   " << batched.qps() << " qps  (occupancy "
            << batched.mean_occupancy() << ")\n"
            << "   unbatched " << unbatched.qps() << " qps\n"
            << "   speedup   " << speedup << "x\n";

  // QPS-vs-latency: one batched window per client count.
  struct SweepRow {
    std::size_t clients = 0;
    double offered_qps = 0.0;
    double qps = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    Histogram server;  // this window's serve.latency_us delta
    bool histogram_matches = true;
  };
  std::vector<SweepRow> sweep;
  hub.set_max_batch(max_batch);
  for (const SweepPoint& point : sweep_points) {
    serve::LoadGenerator::Options sweep_options = gen_options;
    sweep_options.clients = point.clients;
    if (point.offered_qps > 0.0) sweep_options.offered_qps = point.offered_qps;
    serve::LoadGenerator sweep_gen(hub, *setup.test, sweep_options);
    const Histogram hist_before = latency_histogram(serve_metrics);
    sweep_gen.start();
    for (std::size_t s = 0; s < steps_per_window; ++s) sim->step();
    serve::LoadGenerator::Window window = sweep_gen.stop();
    hub.quiesce();
    Histogram delta =
        window_delta(hist_before, latency_histogram(serve_metrics));
    trained_steps += steps_per_window;
    const bool matches = matches_client(delta, window.latencies_us);
    std::sort(window.latencies_us.begin(), window.latencies_us.end());
    sweep.push_back(SweepRow{point.clients, point.offered_qps, window.qps(),
                             pct(window.latencies_us, 0.50),
                             pct(window.latencies_us, 0.95),
                             pct(window.latencies_us, 0.99), std::move(delta),
                             matches});
    std::cerr << "   sweep " << point.clients << " client"
              << (point.clients == 1 ? "" : "s");
    if (point.offered_qps > 0.0) {
      std::cerr << " @ " << point.offered_qps << " offered";
    }
    std::cerr << ": " << sweep.back().qps << " qps, p95 " << sweep.back().p95
              << " us\n";
  }

  obs.collect(*sim);
  obs.finish();
  const bench::SimRunSummary summary = bench::SimRunSummary::capture(*sim);
  const serve::ServingHub::Stats totals = hub.stats();

  const std::size_t checked_windows = 2 * windows + sweep.size();
  std::size_t mismatched_windows =
      batched.mismatched_windows + unbatched.mismatched_windows;
  for (const SweepRow& row : sweep) {
    if (!row.histogram_matches) ++mismatched_windows;
  }

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"serving_load\",\n"
      << "  \"task\": \"" << data::to_string(kind) << "\",\n"
      << "  \"scale\": \"" << (options.paper ? "paper" : "fast") << "\",\n"
      << "  \"algorithm\": \"" << core::to_string(algorithm) << "\",\n"
      << bench::protocol_json(pool.size(),
                              {{"interleaved_ab", true},
                               {"windows_per_arm", windows},
                               {"order", "batched,unbatched per pair"},
                               {"steps_per_window", steps_per_window},
                               {"warmup_steps", warmup_steps},
                               {"mode", mode_flag},
                               {"clients", clients},
                               {"max_batch_batched", max_batch},
                               {"max_batch_unbatched", 1},
                               {"offered_qps", offered_qps},
                               {"seed", options.seed}},
                              "  ")
      << ",\n"
      << "  \"batched\": " << arm_json(batched, "  ") << ",\n"
      << "  \"unbatched\": " << arm_json(unbatched, "  ") << ",\n"
      << "  \"speedup_qps\": " << speedup << ",\n"
      << "  \"qps_vs_latency\": [";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    {\"clients\": " << sweep[i].clients
        << ", \"offered_qps\": " << sweep[i].offered_qps
        << ", \"qps\": " << sweep[i].qps << ", \"p50_us\": " << sweep[i].p50
        << ", \"p95_us\": " << sweep[i].p95
        << ", \"p99_us\": " << sweep[i].p99
        << ", \"histogram_p50_us\": " << sweep[i].server.quantile(0.50)
        << ", \"histogram_p95_us\": " << sweep[i].server.quantile(0.95)
        << ", \"histogram_p99_us\": " << sweep[i].server.quantile(0.99)
        << ", \"histogram_matches_client\": "
        << (sweep[i].histogram_matches ? "true" : "false") << "}";
  }
  out << (sweep.empty() ? "],\n" : "\n  ],\n")
      << "  \"histogram_check\": {\"windows\": " << checked_windows
      << ", \"mismatched\": " << mismatched_windows << "},\n"
      << "  \"serving_totals\": {\"submitted\": " << totals.submitted
      << ", \"served\": " << totals.served
      << ", \"rejected\": " << totals.rejected
      << ", \"batches\": " << totals.batches
      << ", \"model_publishes\": " << totals.publishes
      << ", \"runtime_reloads\": " << totals.reloads << "},\n"
      << "  \"trained_steps\": " << trained_steps << ",\n"
      << "  \"pool_threads\": " << pool.size() << ",\n"
      << "  \"peak_rss_bytes\": " << bench::peak_rss_bytes() << ",\n"
      << bench::json_summary_fields(summary, "  ") << "\n"
      << "}\n";
  std::cerr << "   wrote " << json_path << "\n";
  if (mismatched_windows > 0) {
    std::cerr << "error: serve.latency_us window delta differs from the "
                 "client latencies in "
              << mismatched_windows << " of " << checked_windows
              << " windows\n";
    return 1;
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
