#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>

#include "bench_common.hpp"
#include "core/algorithms.hpp"
#include "layers.hpp"
#include "open_loop.hpp"
#include "probes.hpp"
#include "serve/serving.hpp"

namespace middlefl::bench::suite {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// --- Shared pieces -------------------------------------------------------

/// Set-up durations, one sample per repetition: data generation,
/// Simulation construction and their sum. The small workloads set up once
/// per window, spread over the run: the host's slow stretches last longer
/// than a burst of back-to-back repetitions would.
struct SetupSamples {
  std::vector<double> total_s;
  std::vector<double> data_s;
  std::vector<double> construct_s;

  /// Runs `build` (which returns {data seconds, construct seconds}) once.
  void time(const std::function<std::pair<double, double>()>& build) {
    const auto [data, construct] = build();
    data_s.push_back(data);
    construct_s.push_back(construct);
    total_s.push_back(data + construct);
  }
};

/// How many windows of nominally `window_s` seconds fill the budget. The
/// count depends only on the budget, never on measured speed, so every
/// commit measures the same steps for the same --seconds.
std::size_t windows_for(double budget_s, double window_s,
                        std::size_t min_windows) {
  return std::max<std::size_t>(
      min_windows, static_cast<std::size_t>(std::lround(budget_s / window_s)));
}

/// True when edge_members() partitions the fleet: every device appears
/// exactly once, under the edge its assignment names, in ascending order.
bool membership_partitions(const core::Simulation& sim) {
  const auto& members = sim.edge_members();
  const auto& assignment = sim.assignment();
  const std::size_t n = sim.num_devices();
  if (members.size() != sim.num_edges() || assignment.size() != n) {
    return false;
  }
  std::size_t total = 0;
  for (std::size_t e = 0; e < members.size(); ++e) {
    const auto& list = members[e];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] >= n || assignment[list[i]] != e) return false;
      if (i > 0 && list[i - 1] >= list[i]) return false;
    }
    total += list.size();
  }
  return total == n;
}

double mean_step_ms(const StepLog& log) {
  return log.steps() == 0
             ? 0.0
             : log.busy_s() * 1e3 / static_cast<double>(log.steps());
}

/// End-to-end metrics every workload reports, plus the layer numbers the
/// untraced pass already measured.
void emit_untraced(Report& r, const SetupSamples& setup,
                   const std::vector<double>& rates, const StepLog& log) {
  r.set("setup_s", "s", setup.total_s);
  r.set("steps_per_s", "1/s", rates);
  r.set("peak_rss_mb", "MB", static_cast<double>(peak_rss_bytes()) / kMiB);
  r.set("data.setup_s", "s", setup.data_s);
  r.set("core.construct_s", "s", setup.construct_s);
  r.set("core.sync_step_ms", "ms", log.sync_ms());
  r.set("core.plain_step_ms", "ms", log.plain_ms());
  r.check(!log.sync_ms().empty(), "cloud syncs happened");
}

/// Layers a workload does not exercise report zero work.
void emit_idle_serving(Report& r) {
  for (const char* name :
       {"serve.p50_us", "serve.p99_us", "serve.server_p99_us",
        "serve.generator_lag_p99_us"}) {
    r.set(name, "us", 0.0);
  }
  r.set("serve.goodput_qps", "1/s", 0.0);
  r.set("serve.batch_occupancy", "count", 0.0);
  r.set("serve.reloads_per_s", "1/s", 0.0);
  r.set("serve.reject_ratio", "ratio", 0.0);
}

void emit_idle_accuracy(Report& r) {
  r.set("core.tta_s", "s", 0.0);
  r.set("core.steps_to_target", "count", 0.0);
  r.set("core.final_accuracy", "ratio", 0.0);
  r.set("core.eval_ms", "ms", 0.0);
}

void finish_traced(const Context& ctx, TracedPass& traced, Report& r,
                   double untraced_step_ms, const nn::ModelSpec& spec,
                   std::size_t batch, std::size_t contributions) {
  traced.emit(r, untraced_step_ms);
  time_compute_layers(spec, batch, contributions, ctx.pool, ctx.seed,
                      &traced.trace(), r);
  if (!ctx.trace_out.empty()) traced.write_trace(ctx.trace_out);
}

// --- Fig-6 task (fig6_mnist, paper_cnn, serve_train) ---------------------

TaskSetup make_fig6_setup(const Context& ctx, bool paper) {
  BenchOptions options;
  options.seed = ctx.seed;
  options.paper = paper;
  if (ctx.smoke) options.steps_scale = 0.1;
  TaskSetup setup = make_task_setup(data::TaskKind::kMnist, options);
  setup.sim_cfg.eval_every = 10;
  setup.sim_cfg.eval_edges = false;
  setup.sim_cfg.parallel_devices = true;
  setup.sim_cfg.pool = ctx.pool;
  return setup;
}

/// Splices the traced pass's decorators around a simulation's mobility
/// model, selection strategy and optimizer prototype (no-op without probes).
void instrument(Probes* probes, std::unique_ptr<mobility::MobilityModel>& model,
                core::AlgorithmSpec& spec,
                std::unique_ptr<optim::Optimizer>& optimizer) {
  if (probes == nullptr) return;
  model = std::make_unique<TimedMobility>(std::move(model), *probes);
  spec.selection =
      std::make_unique<TimedSelection>(std::move(spec.selection), *probes);
  optimizer = std::make_unique<TimedOptimizer>(std::move(optimizer), *probes);
}

/// The construction bench::make_simulation performs for MIDDLE (home-ring
/// Markov mobility at P = 0.5, repeat 0), instrumented when `probes` is
/// given.
std::unique_ptr<core::Simulation> make_task_sim(const TaskSetup& setup,
                                                Probes* probes) {
  auto markov = std::make_unique<mobility::MarkovMobility>(
      setup.initial_edges, setup.num_edges, 0.5, setup.sim_cfg.seed + 101);
  markov->set_topology(mobility::MoveTopology::kHomeRing, 0.5);
  std::unique_ptr<mobility::MobilityModel> model = std::move(markov);
  core::AlgorithmSpec spec = core::make_algorithm(core::Algorithm::kMiddle);
  std::unique_ptr<optim::Optimizer> optimizer = setup.optimizer->clone_config();
  instrument(probes, model, spec, optimizer);
  return std::make_unique<core::Simulation>(
      setup.sim_cfg, setup.model_spec, *optimizer, *setup.train,
      setup.partition, *setup.test, std::move(model), std::move(spec));
}

/// One set-up repetition of a Fig-6 task: fresh data, then a Simulation.
std::pair<double, double> time_task_setup(const Context& ctx, bool paper) {
  const auto t0 = Clock::now();
  const TaskSetup fresh = make_fig6_setup(ctx, paper);
  const double data_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const auto sim = make_task_sim(fresh, nullptr);
  return {data_s, seconds_since(t1)};
}

/// One Fig-6 run: cfg.total_steps steps, the cloud model evaluated every
/// eval_every steps. Step time (evaluations excluded) feeds the rate;
/// time-to-accuracy is wall time from the first step to the evaluation
/// that first reaches the target, evaluations included.
class Fig6Run {
 public:
  struct Result {
    double steps_per_s = 0.0;
    double tta_s = 0.0;
    std::size_t steps_to_target = 0;  // 0 = target not reached
    double final_accuracy = 0.0;
    std::uint64_t hash = 0;
  };

  Fig6Run(std::unique_ptr<core::Simulation> sim, double target)
      : sim_(std::move(sim)), target_(target) {}

  core::Simulation& sim() noexcept { return *sim_; }
  bool done() const noexcept {
    return sim_->current_step() >= sim_->config().total_steps;
  }

  void advance(StepLog& log, std::vector<double>& eval_ms, Report& r) {
    if (sim_->current_step() == 0) begin_ = Clock::now();
    const double busy_before = log.busy_s();
    log.step(*sim_);
    busy_s_ += log.busy_s() - busy_before;
    r.attempt();
    const std::size_t t = sim_->current_step();
    const core::SimulationConfig& cfg = sim_->config();
    if (t % cfg.eval_every != 0 && t != cfg.total_steps) return;
    const auto eval_begin = Clock::now();
    const double accuracy = sim_->evaluate_now().accuracy;
    eval_ms.push_back(seconds_since(eval_begin) * 1e3);
    r.attempt();
    final_accuracy_ = accuracy;
    if (steps_to_target_ == 0 && accuracy >= target_) {
      steps_to_target_ = t;
      tta_s_ = seconds_since(begin_);
    }
  }

  Result result() const {
    Result res;
    res.steps_per_s =
        busy_s_ > 0.0 ? static_cast<double>(sim_->current_step()) / busy_s_
                      : 0.0;
    res.tta_s = tta_s_;
    res.steps_to_target = steps_to_target_;
    res.final_accuracy = final_accuracy_;
    res.hash = params_hash(sim_->cloud_params());
    return res;
  }

 private:
  std::unique_ptr<core::Simulation> sim_;
  double target_;
  Clock::time_point begin_{};
  double busy_s_ = 0.0;
  std::size_t steps_to_target_ = 0;
  double tta_s_ = 0.0;
  double final_accuracy_ = 0.0;
};

/// Accuracy-side results of completed Fig-6 runs.
struct RunSet {
  std::vector<Fig6Run::Result> runs;

  void emit(Report& r, bool with_tta, std::size_t num_classes) const {
    if (runs.empty()) {
      r.check(false, "at least one full run completed");
      return;
    }
    bool same = true;
    std::vector<double> tta;
    for (const auto& run : runs) {
      same = same && run.hash == runs.front().hash;
      if (run.steps_to_target > 0) tta.push_back(run.tta_s);
    }
    r.check(same, "untraced repeats give the same final cloud-model hash");
    r.check(runs.front().final_accuracy >
                1.0 / static_cast<double>(num_classes),
            "final accuracy above chance");
    r.set("core.tta_s", "s", with_tta && !tta.empty() ? tta : std::vector{0.0});
    r.set("core.steps_to_target", "count",
          static_cast<double>(runs.front().steps_to_target));
    r.set("core.final_accuracy", "ratio", runs.front().final_accuracy);
  }
};

// --- fig6_mnist ----------------------------------------------------------

void run_fig6_mnist(const Context& ctx, Report& r) {
  const TaskSetup setup = make_fig6_setup(ctx, /*paper=*/false);
  SetupSamples setup_samples;
  StepLog log;
  std::vector<double> rates;
  std::vector<double> eval_ms;
  RunSet runs;
  bool members_ok = true;
  // One 400-step run takes ~0.75 s on the reference host.
  const std::size_t num_runs = windows_for(ctx.seconds, 0.75, 2);
  while (runs.runs.size() < num_runs) {
    setup_samples.time([&] { return time_task_setup(ctx, /*paper=*/false); });
    Fig6Run run(make_task_sim(setup, nullptr), setup.target_accuracy);
    while (!run.done()) run.advance(log, eval_ms, r);
    members_ok = members_ok && membership_partitions(run.sim());
    runs.runs.push_back(run.result());
    rates.push_back(runs.runs.back().steps_per_s);
  }
  r.check(members_ok, "edge membership partitions the fleet");
  emit_untraced(r, setup_samples, rates, log);
  runs.emit(r, /*with_tta=*/true, setup.model_spec.num_classes);
  r.set("core.eval_ms", "ms", eval_ms);
  if (!ctx.trace) return;

  TracedPass traced(*ctx.pool);
  Fig6Run run(make_task_sim(setup, &traced.probes()), setup.target_accuracy);
  traced.begin(run.sim());
  std::vector<double> traced_eval_ms;
  while (!run.done()) run.advance(traced, traced_eval_ms, r);
  traced.end(run.sim());
  r.check(run.result().hash == runs.runs.front().hash,
          "traced pass reproduces the untraced cloud-model hash");
  emit_idle_serving(r);
  finish_traced(ctx, traced, r, mean_step_ms(log), setup.model_spec,
                setup.sim_cfg.batch_size, setup.sim_cfg.select_per_edge);
}

// --- Windowed workloads (paper_cnn, fleet_1m) ----------------------------

struct WindowPlan {
  std::size_t warmup = 5;
  std::size_t window_steps = 10;
  /// Nominal seconds per window on the reference host.
  double window_s = 1.0;
  std::size_t min_windows = 3;
  /// The untraced pass records the cloud-model hash here; the traced pass
  /// runs exactly this many steps and must match it.
  std::size_t check_step() const { return warmup + window_steps; }
};

struct WindowResult {
  std::vector<double> rates;
  std::uint64_t check_hash = 0;
  bool members_ok = true;
};

/// Warm-up, then the budget's windows; `before_window` runs untimed ahead
/// of each window.
WindowResult run_windows(core::Simulation& sim, const WindowPlan& plan,
                         double budget_s, StepLog& log, Report& r,
                         const std::function<void()>& before_window) {
  WindowResult out;
  StepLog warmup;
  for (std::size_t s = 0; s < plan.warmup; ++s) {
    warmup.step(sim);
    r.attempt();
  }
  const std::size_t windows =
      windows_for(budget_s, plan.window_s, plan.min_windows);
  while (out.rates.size() < windows) {
    before_window();
    const std::size_t steps_before = log.steps();
    const double busy_before = log.busy_s();
    for (std::size_t s = 0; s < plan.window_steps; ++s) {
      log.step(sim);
      r.attempt();
      if (sim.current_step() == plan.check_step()) {
        out.check_hash = params_hash(sim.cloud_params());
      }
    }
    out.rates.push_back(static_cast<double>(log.steps() - steps_before) /
                        (log.busy_s() - busy_before));
    out.members_ok = out.members_ok && membership_partitions(sim);
  }
  return out;
}

/// Traced pass of a windowed workload: check_step() steps on `sim`.
void run_traced_windows(core::Simulation& sim, const WindowPlan& plan,
                        TracedPass& traced, std::uint64_t untraced_hash,
                        Report& r) {
  traced.begin(sim);
  while (sim.current_step() < plan.check_step()) traced.step(sim);
  traced.end(sim);
  r.check(params_hash(sim.cloud_params()) == untraced_hash,
          "traced pass reproduces the untraced cloud-model hash");
  r.check(membership_partitions(sim), "traced membership partitions the fleet");
}

void run_paper_cnn(const Context& ctx, Report& r) {
  const TaskSetup setup = make_fig6_setup(ctx, /*paper=*/true);
  auto sim = make_task_sim(setup, nullptr);
  SetupSamples setup_samples;

  WindowPlan plan{5, 10, 1.8, 3};
  if (ctx.smoke) plan = WindowPlan{1, 9, 1.0, 1};
  StepLog log;
  const WindowResult windows =
      run_windows(*sim, plan, ctx.seconds, log, r, [&] {
        setup_samples.time([&] { return time_task_setup(ctx, true); });
      });
  r.check(windows.members_ok, "edge membership partitions the fleet");
  emit_untraced(r, setup_samples, windows.rates, log);
  emit_idle_accuracy(r);
  if (!ctx.trace) return;

  sim.reset();
  TracedPass traced(*ctx.pool);
  auto traced_sim = make_task_sim(setup, &traced.probes());
  run_traced_windows(*traced_sim, plan, traced, windows.check_hash, r);
  emit_idle_serving(r);
  finish_traced(ctx, traced, r, mean_step_ms(log), setup.model_spec,
                setup.sim_cfg.batch_size, setup.sim_cfg.select_per_edge);
}

// --- fleet_1m ------------------------------------------------------------

/// The fleet-scale task: a tiny 4-class MLP over window-partitioned
/// synthetic data (O(1) data state per device), uniform initial edges and
/// low mobility, FedMes random selection.
struct FleetTask {
  static constexpr std::size_t kEdges = 8;
  data::Dataset train{data::Shape{1, 6, 6}, 4};
  data::Dataset test{data::Shape{1, 6, 6}, 4};
  nn::ModelSpec model_spec;
  data::Partition partition;
  std::vector<std::size_t> initial_edges;
  core::SimulationConfig cfg;
  std::unique_ptr<optim::Optimizer> optimizer;

  FleetTask(std::size_t devices, std::uint64_t seed,
            parallel::ThreadPool* pool) {
    data::SyntheticConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.height = 6;
    dcfg.width = 6;
    dcfg.noise_std = 0.2f;
    dcfg.seed = parallel::hash_combine(5, seed);
    const data::SyntheticGenerator generator(dcfg);
    train = generator.generate(240, 0);
    test = generator.generate(80, 1);
    model_spec.arch = nn::ModelArch::kMlp;
    model_spec.input_shape = tensor::Shape{1, 6, 6};
    model_spec.num_classes = 4;
    model_spec.hidden = 16;
    partition = data::partition_fleet_window(train, devices, 16);
    initial_edges = data::assign_edges_uniform(devices, kEdges, seed);
    cfg.select_per_edge = 4;
    cfg.local_steps = 2;
    cfg.cloud_interval = 5;
    cfg.batch_size = 8;
    cfg.eval_edges = false;
    cfg.seed = seed;
    cfg.parallel_devices = true;
    cfg.pool = pool;
    optimizer = std::make_unique<optim::Sgd>(
        optim::SgdConfig{.learning_rate = 0.05, .momentum = 0.9});
  }

  std::unique_ptr<core::Simulation> make_sim(Probes* probes) const {
    std::unique_ptr<mobility::MobilityModel> model =
        std::make_unique<mobility::MarkovMobility>(initial_edges, kEdges, 0.1,
                                                   cfg.seed + 11);
    core::AlgorithmSpec spec = core::make_algorithm(core::Algorithm::kFedMes);
    std::unique_ptr<optim::Optimizer> opt = optimizer->clone_config();
    instrument(probes, model, spec, opt);
    return std::make_unique<core::Simulation>(cfg, model_spec, *opt, train,
                                              partition, test, std::move(model),
                                              std::move(spec));
  }
};

void run_fleet_1m(const Context& ctx, Report& r) {
  const std::size_t devices = ctx.smoke ? 10'000 : 1'000'000;
  std::unique_ptr<FleetTask> task;
  std::unique_ptr<core::Simulation> sim;
  // Three back-to-back repetitions (each ~0.4 s, longer than the host's
  // slow stretches); the last one is kept. Only one fleet is ever alive.
  SetupSamples setup_samples;
  for (int rep = 0; rep < 3; ++rep) {
    setup_samples.time([&] {
      sim.reset();
      task.reset();
      const auto t0 = Clock::now();
      task = std::make_unique<FleetTask>(devices, ctx.seed, ctx.pool);
      const double data_s = seconds_since(t0);
      const auto t1 = Clock::now();
      sim = task->make_sim(nullptr);
      return std::pair{data_s, seconds_since(t1)};
    });
  }

  WindowPlan plan{5, 25, 1.1, 3};
  if (ctx.smoke) plan = WindowPlan{2, 5, 1.0, 1};
  StepLog log;
  const WindowResult windows =
      run_windows(*sim, plan, ctx.seconds, log, r, [] {});
  r.check(windows.members_ok, "edge membership partitions the fleet");
  emit_untraced(r, setup_samples, windows.rates, log);
  emit_idle_accuracy(r);
  if (!ctx.trace) return;

  sim.reset();
  TracedPass traced(*ctx.pool);
  auto traced_sim = task->make_sim(&traced.probes());
  run_traced_windows(*traced_sim, plan, traced, windows.check_hash, r);
  emit_idle_serving(r);
  finish_traced(ctx, traced, r, mean_step_ms(log), task->model_spec,
                task->cfg.batch_size, task->cfg.select_per_edge);
}

// --- serve_train ---------------------------------------------------------

constexpr double kOperatingQps = 10'000.0;
constexpr double kP99LimitUs = 5'000.0;

TaskSetup make_serve_setup(const Context& ctx) {
  TaskSetup setup = make_fig6_setup(ctx, /*paper=*/false);
  setup.sim_cfg.comm.async_cloud = true;
  setup.sim_cfg.comm.max_staleness = 1;
  setup.sim_cfg.transport.wan_up.latency_steps = 1;
  setup.sim_cfg.serving.enabled = true;
  setup.sim_cfg.serving.max_batch = 16;
  return setup;
}

/// Trains Fig-6 runs back to back on one hub: when a run reaches its step
/// budget its result is kept and a fresh run takes over the hub.
class ServeTrainer {
 public:
  ServeTrainer(const TaskSetup& setup, core::EdgeModelSink& sink,
               Probes* probes)
      : setup_(setup), sink_(sink), probes_(probes) {
    restart();
  }
  ~ServeTrainer() { run_->sim().set_edge_model_sink(nullptr); }
  ServeTrainer(const ServeTrainer&) = delete;
  ServeTrainer& operator=(const ServeTrainer&) = delete;

  Fig6Run& run() noexcept { return *run_; }

  void advance(StepLog& log, std::vector<double>& eval_ms, Report& r) {
    run_->advance(log, eval_ms, r);
    if (!run_->done()) return;
    members_ok_ = members_ok_ && membership_partitions(run_->sim());
    finished_.runs.push_back(run_->result());
    restart();
  }
  const RunSet& finished() const noexcept { return finished_; }
  /// Membership partitioned the fleet at the end of every finished run.
  bool members_ok() const noexcept { return members_ok_; }

 private:
  void restart() {
    if (run_ != nullptr) run_->sim().set_edge_model_sink(nullptr);
    run_ = std::make_unique<Fig6Run>(make_task_sim(setup_, probes_),
                                     setup_.target_accuracy);
    run_->sim().set_edge_model_sink(&sink_);
  }

  const TaskSetup& setup_;
  core::EdgeModelSink& sink_;
  Probes* probes_;
  std::unique_ptr<Fig6Run> run_;
  RunSet finished_;
  bool members_ok_ = true;
};

/// Bucket counts (and bounds) of serve.latency_us in a registry snapshot.
std::vector<std::uint64_t> latency_histogram(const obs::MetricsRegistry& m,
                                             std::vector<double>& bounds) {
  for (const auto& h : m.snapshot().histograms) {
    if (h.name == "serve.latency_us") {
      bounds = h.bounds;
      return h.counts;
    }
  }
  return {};
}

void run_serve_train(const Context& ctx, Report& r) {
  const TaskSetup setup = make_serve_setup(ctx);
  // One set-up repetition: fresh data, a Simulation and a hub it publishes
  // into.
  const auto time_serve_setup = [&ctx] {
    const auto t0 = Clock::now();
    const TaskSetup fresh = make_serve_setup(ctx);
    const double data_s = seconds_since(t0);
    const auto t1 = Clock::now();
    auto sim = make_task_sim(fresh, nullptr);
    serve::ServingHub hub(fresh.sim_cfg.serving, fresh.num_edges,
                          fresh.model_spec, ctx.pool);
    sim->set_edge_model_sink(&hub);
    const double construct_s = seconds_since(t1);
    sim->set_edge_model_sink(nullptr);
    return std::pair{data_s, construct_s};
  };
  SetupSamples setup_samples;

  serve::ServingHub hub(setup.sim_cfg.serving, setup.num_edges,
                        setup.model_spec, ctx.pool);
  OpenLoopGenerator generator(hub, *setup.test, /*edge=*/0, ctx.seed);
  StepLog log;
  std::vector<double> rates;
  std::vector<double> eval_ms;
  std::vector<double> op_latency, op_server, op_lag;
  std::uint64_t offered = 0, rejected = 0;
  double window_seconds_total = 0.0;
  const serve::ServingHub::Stats stats_before = hub.stats();
  double goodput = 0.0;
  std::uint64_t untraced_hash = 0;
  {
    ServeTrainer trainer(setup, hub, nullptr);
    StepLog warmup;
    std::vector<double> warmup_eval_ms;
    for (int s = 0; s < 10; ++s) trainer.advance(warmup, warmup_eval_ms, r);

    // Fixed sweep, then bisection between the highest passing and the
    // lowest failing rate; with no failing rate the remaining windows
    // return to the operating point.
    const double scale = ctx.smoke ? 0.1 : 1.0;
    const double window_s = ctx.smoke ? 0.25 : ctx.seconds / 7.0;
    std::vector<double> sweep{5'000 * scale, kOperatingQps * scale,
                              20'000 * scale, 40'000 * scale};
    std::vector<std::pair<double, bool>> outcomes;  // (qps, met the limit)
    double pass_hi = 0.0;  // highest passing rate below fail_lo
    double fail_lo = 0.0;  // lowest failing rate (0 = none)
    for (std::size_t w = 0; w < sweep.size() + 3; ++w) {
      // Bisection windows offer a load that depends on earlier outcomes,
      // so only fixed-rate windows feed the training rate.
      const bool bisecting = w >= sweep.size() && fail_lo > 0.0;
      double qps = kOperatingQps * scale;
      if (w < sweep.size()) {
        qps = sweep[w];
      } else if (bisecting) {
        qps = 0.5 * (pass_hi + fail_lo);
      }
      setup_samples.time(time_serve_setup);
      const std::size_t steps_before = log.steps();
      const double busy_before = log.busy_s();
      generator.start(qps, window_s);
      while (generator.running()) trainer.advance(log, eval_ms, r);
      const OpenLoopWindow window = generator.finish();

      if (!bisecting && log.steps() > steps_before) {
        rates.push_back(static_cast<double>(log.steps() - steps_before) /
                        (log.busy_s() - busy_before));
      }
      r.attempt(window.offered);
      r.fail(window.failed());
      offered += window.offered;
      rejected += window.rejected;
      window_seconds_total += window.seconds;
      if (qps == kOperatingQps * scale) {
        op_latency.insert(op_latency.end(), window.latency_us.begin(),
                          window.latency_us.end());
        op_server.insert(op_server.end(), window.server_us.begin(),
                         window.server_us.end());
        op_lag.insert(op_lag.end(), window.lag_us.begin(),
                      window.lag_us.end());
      }
      outcomes.emplace_back(qps, window.meets(kP99LimitUs));
      fail_lo = 0.0;
      for (const auto& [rate, met] : outcomes) {
        if (!met && (fail_lo == 0.0 || rate < fail_lo)) fail_lo = rate;
      }
      pass_hi = 0.0;
      for (const auto& [rate, met] : outcomes) {
        if (met && (fail_lo == 0.0 || rate < fail_lo)) {
          pass_hi = std::max(pass_hi, rate);
        }
      }
    }
    goodput = pass_hi;
    r.check(trainer.members_ok(), "edge membership partitions the fleet");
    emit_untraced(r, setup_samples, rates, log);
    trainer.finished().emit(r, /*with_tta=*/false,
                            setup.model_spec.num_classes);
    if (!trainer.finished().runs.empty()) {
      untraced_hash = trainer.finished().runs.front().hash;
    }
  }
  const serve::ServingHub::Stats stats_after = hub.stats();
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  r.set("core.eval_ms", "ms", eval_ms);
  r.set("serve.p50_us", "us", quantile(op_latency, 0.50));
  r.set("serve.p99_us", "us", quantile(op_latency, 0.99));
  r.set("serve.server_p99_us", "us", quantile(op_server, 0.99));
  r.set("serve.generator_lag_p99_us", "us", quantile(op_lag, 0.99));
  r.set("serve.goodput_qps", "1/s", goodput);
  r.set("serve.batch_occupancy", "count",
        ratio(static_cast<double>(stats_after.served - stats_before.served),
              static_cast<double>(stats_after.batches - stats_before.batches)));
  r.set("serve.reloads_per_s", "1/s",
        ratio(static_cast<double>(stats_after.reloads - stats_before.reloads),
              window_seconds_total));
  r.set("serve.reject_ratio", "ratio",
        ratio(static_cast<double>(rejected), static_cast<double>(offered)));
  r.check(!op_latency.empty(), "operating-point requests completed");
  if (!ctx.trace) return;

  // Traced pass: one full run under operating-point load on a fresh hub
  // with a metrics registry, whose serve.latency_us histogram delta must
  // match the generator's own server-side latencies bucket for bucket.
  TracedPass traced(*ctx.pool);
  serve::ServingHub traced_hub(setup.sim_cfg.serving, setup.num_edges,
                               setup.model_spec, ctx.pool);
  obs::Observability hub_obs;
  hub_obs.trace = &traced.trace();
  hub_obs.metrics = &traced.metrics();
  traced_hub.set_observability(hub_obs);
  TimedSink sink(traced_hub, traced.probes());
  OpenLoopGenerator traced_generator(traced_hub, *setup.test, 0, ctx.seed);

  Fig6Run run(make_task_sim(setup, &traced.probes()), setup.target_accuracy);
  run.sim().set_edge_model_sink(&sink);
  traced.begin(run.sim());
  std::vector<double> bounds;
  const std::vector<std::uint64_t> before =
      latency_histogram(traced.metrics(), bounds);
  std::vector<double> traced_eval_ms;
  // The sender stops at run end; 30 s of tickets outlast any full run.
  traced_generator.start(kOperatingQps * (ctx.smoke ? 0.1 : 1.0), 30.0);
  while (!run.done()) run.advance(traced, traced_eval_ms, r);
  const OpenLoopWindow window = traced_generator.finish();
  traced.end(run.sim());
  run.sim().set_edge_model_sink(nullptr);

  std::vector<std::uint64_t> delta =
      latency_histogram(traced.metrics(), bounds);
  for (std::size_t i = 0; i < before.size() && i < delta.size(); ++i) {
    delta[i] -= before[i];
  }
  std::vector<std::uint64_t> own(bounds.size() + 1, 0);
  for (const double us : window.server_us) {
    own[static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), us) - bounds.begin())] +=
        1;
  }
  r.check(!bounds.empty() && delta == own,
          "serve.latency_us histogram delta matches the window's own "
          "server-side latencies");
  r.check(window.failed() == 0, "traced serving window has no failures");
  r.check(run.result().hash == untraced_hash,
          "traced pass reproduces the untraced cloud-model hash");
  finish_traced(ctx, traced, r, mean_step_ms(log), setup.model_spec,
                setup.sim_cfg.batch_size, setup.sim_cfg.select_per_edge);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fig6_mnist", "paper_cnn",
                                              "fleet_1m", "serve_train"};
  return names;
}

void run_workload(const Context& ctx, Report& report) {
  if (ctx.workload == "fig6_mnist") return run_fig6_mnist(ctx, report);
  if (ctx.workload == "paper_cnn") return run_paper_cnn(ctx, report);
  if (ctx.workload == "fleet_1m") return run_fleet_1m(ctx, report);
  if (ctx.workload == "serve_train") return run_serve_train(ctx, report);
  throw std::invalid_argument("unknown workload '" + ctx.workload + "'");
}

}  // namespace middlefl::bench::suite
