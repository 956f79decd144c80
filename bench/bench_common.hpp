// Shared experiment plumbing for the figure-reproduction benches.
//
// Every bench runs at one of two scales:
//   fast  (default) — shrunken datasets/models/step counts so the whole
//                     suite finishes in minutes on one core; preserves the
//                     qualitative shape of every figure.
//   paper (--paper)  — the configuration of §6.1.2: 10 edges, 100 devices,
//                     K=5, I=10, T_c=10, P=0.5, CNN-2/CNN-3 models, SGD
//                     (lr .01, momentum .9) or Adam (lr .001, speech).
#pragma once

#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/scenario.hpp"
#include "core/simulation.hpp"
#include "data/partition.hpp"
#include "obs/observability.hpp"
#include "data/synthetic.hpp"
#include "mobility/markov_mobility.hpp"
#include "nn/model_factory.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace middlefl::bench {

struct BenchOptions {
  bool paper = false;
  double mobility = 0.5;       // global mobility P
  std::size_t cloud_interval = 10;  // T_c
  std::uint64_t seed = 42;
  std::string out;  // optional CSV path (stdout otherwise)
  /// Multiplies every step budget (quick smoke runs: --steps-scale 0.1).
  double steps_scale = 1.0;
  /// Independent repetitions per configuration (different simulation and
  /// mobility seeds over the same datasets); benches report mean +- std.
  std::size_t repeats = 1;
  /// Worker threads for the shared pool (0 = MIDDLEFL_THREADS env or
  /// hardware concurrency). Applied via ThreadPool::set_default_size by
  /// print_banner, before any bench touches the global pool.
  std::size_t threads = 0;

  /// Observability capture (all optional; empty = fully disabled, the
  /// simulator stays on its zero-cost path).
  std::string trace_out;    // Chrome trace-event JSON (Perfetto)
  std::string metrics_out;  // metrics snapshot JSON
  std::string log_jsonl;    // per-step/per-eval JSONL records

  /// Registers the shared flags on a parser.
  void register_flags(util::CliParser& cli);
};

/// Owns the recorders behind the shared --trace-out/--metrics-out/
/// --log-jsonl flags and wires them into simulations. With no capture
/// flags set every method is a no-op. One session spans a whole bench
/// invocation: attach() each simulation before running it, collect() it
/// after (transport gauges), finish() once at the end to write the files.
/// The destructor detaches the recorders from the global pool.
class ObsSession {
 public:
  /// One recorder per non-empty output path.
  ObsSession(const std::string& trace_out, const std::string& metrics_out,
             const std::string& log_jsonl);
  explicit ObsSession(const BenchOptions& options)
      : ObsSession(options.trace_out, options.metrics_out,
                   options.log_jsonl) {}
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool enabled() const noexcept { return bundle_.enabled(); }
  obs::TraceRecorder* trace() noexcept { return bundle_.trace; }
  /// The recorders as one bundle, for other consumers (a serving hub).
  const obs::Observability& bundle() const noexcept { return bundle_; }

  /// Wires the recorders into `simulation` (and the global pool).
  void attach(core::Simulation& simulation);
  /// Publishes the simulation's transport totals as gauges (last call
  /// wins — hand it the run you want the snapshot to describe).
  void collect(core::Simulation& simulation);
  /// Writes the trace/metrics files and flushes the run log; call once,
  /// after the last run.
  void finish();

 private:
  std::unique_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::RunLogger> logger_;
  obs::Observability bundle_;
  std::string trace_out_;
  std::string metrics_out_;
  std::string log_jsonl_;
};

/// Everything needed to construct Simulations for one task at one scale.
struct TaskSetup {
  data::TaskKind kind;
  std::shared_ptr<data::Dataset> train;
  std::shared_ptr<data::Dataset> test;
  data::Partition partition;
  std::vector<std::size_t> initial_edges;
  nn::ModelSpec model_spec;
  std::unique_ptr<optim::Optimizer> optimizer;
  core::SimulationConfig sim_cfg;
  std::size_t num_edges = 0;
  /// The paper's time-to-accuracy target for this task (scaled down in fast
  /// mode because the synthetic stand-in tasks top out lower).
  double target_accuracy = 0.0;
};

/// Builds the full per-task experiment environment (datasets, Non-IID
/// partition, class-grouped initial edge assignment, model, optimizer and
/// simulation config) for the standard evaluation setup of §6.1.
TaskSetup make_task_setup(data::TaskKind kind, const BenchOptions& options);

/// Scenario bridge: builds a TaskSetup from a declarative spec through the
/// config builder, so figure benches and `middlefl_run --scenario` share
/// one construction path (same derived seeds, bitwise-identical runs).
TaskSetup make_task_setup(const config::ScenarioSpec& spec);
/// Loads `path` (strict parse/decode) and builds its TaskSetup.
TaskSetup load_scenario_setup(const std::string& path);

/// Constructs a Simulation for `algorithm` over the given setup, with the
/// requested mobility P (Markov model) and T_c. `repeat` shifts the
/// simulation/mobility seeds (the datasets stay fixed), giving independent
/// repetitions of the same configuration.
std::unique_ptr<core::Simulation> make_simulation(
    const TaskSetup& setup, core::Algorithm algorithm,
    const BenchOptions& options, std::size_t repeat = 0);

/// Runs `options.repeats` independent repetitions and returns all
/// histories (index = repeat). When `obs` is given, every repetition is
/// attached to (and collected into) the session.
std::vector<core::RunHistory> run_repeats(const TaskSetup& setup,
                                          core::Algorithm algorithm,
                                          const BenchOptions& options,
                                          ObsSession* obs = nullptr);

/// Mean and sample standard deviation of final accuracy over repetitions.
struct RepeatSummary {
  double mean_final = 0.0;
  double std_final = 0.0;
  double mean_best = 0.0;
  /// Median time-to-target; nullopt if fewer than half the runs hit it.
  std::optional<std::size_t> median_tta;
};
RepeatSummary summarize_repeats(const std::vector<core::RunHistory>& runs,
                                double target);

/// Runs and returns the history, echoing eval points when `echo` is set.
core::RunHistory run_and_collect(core::Simulation& simulation,
                                 const std::string& label, bool echo = false);

/// Whole-run communication/transport/dropout/fleet accounting captured
/// from a live Simulation — the block every JSON summary emitter
/// (middlefl_run --json-summary, step_throughput, fleet_scale) shares.
/// Capture while the simulation is alive; format later with
/// append_summary_members or json_summary_fields.
struct SimRunSummary {
  std::size_t steps = 0;
  core::CommStats comm;
  struct LinkRow {
    std::string link;
    std::size_t transfers = 0;
    std::size_t dropped = 0;
    std::size_t bytes = 0;
    std::size_t in_flight = 0;
  };
  std::vector<LinkRow> links;
  std::size_t total_wire_bytes = 0;
  std::size_t total_in_flight = 0;
  std::size_t failed_uploads = 0;
  std::size_t lost_downloads = 0;
  std::size_t on_device_aggregations = 0;
  double mean_blend_weight = 0.0;
  std::uint64_t materializations = 0;
  std::uint64_t resident_peak = 0;
  /// Collectives layer: the reduce count and — when comm.async_cloud is
  /// on — the semi-async sync counters.
  std::uint64_t reduces = 0;
  bool async_cloud = false;
  std::uint64_t max_staleness = 0;
  std::uint64_t async_published = 0;
  std::uint64_t async_applied = 0;
  std::uint64_t async_deferred = 0;
  std::uint64_t async_dropped_stale = 0;
  std::uint64_t async_applies = 0;

  static SimRunSummary capture(const core::Simulation& simulation);
};

/// Appends the summary members — `"comm": {...}`, `"transport": {...}`,
/// wire-byte totals, dropout/blend counters and the `"fleet"` block — onto
/// a config::Json object: the one list of summary fields. middlefl_run
/// --json-summary dumps each cell's row compact as one JSONL line.
void append_summary_members(config::Json& object, const SimRunSummary& summary);

/// Renders append_summary_members' members as text, one compact member
/// per line, each prefixed with `indent`, without surrounding braces or a
/// trailing comma, so stream emitters splice it into their own top-level
/// object.
std::string json_summary_fields(const SimRunSummary& summary,
                                const std::string& indent);

/// One run parameter of a protocol header: a key and its value, streamed
/// as a bare JSON number, a JSON boolean, or a quoted string (plain text:
/// no escaping).
struct ProtocolField {
  template <typename Number>
  ProtocolField(std::string name, const Number& value) : key(std::move(name)) {
    std::ostringstream os;
    os << value;
    json = os.str();
  }
  ProtocolField(std::string name, bool value)
      : key(std::move(name)), json(value ? "true" : "false") {}
  ProtocolField(std::string name, const std::string& text)
      : key(std::move(name)), json('"' + text + '"') {}
  ProtocolField(std::string name, const char* text)
      : ProtocolField(std::move(name), std::string(text)) {}
  std::string key;
  std::string json;
};

/// The `"protocol": {...}` member every standalone BENCH_*.json opens
/// with, one field per line prefixed with `indent` (no trailing comma):
/// how the numbers were produced — git sha (read at configure time;
/// `unknown` outside a checkout, `-dirty` with uncommitted changes),
/// compiler, build type, native/portable flavor, the active GEMM ISA,
/// hardware threads and `pool_threads` — then the bench's own `run`
/// parameters (repeats, steps, seed, ...).
std::string protocol_json(std::size_t pool_threads,
                          const std::vector<ProtocolField>& run,
                          const std::string& indent);

/// Median and quartiles of repeated measurements (the per-window rates of
/// fleet_scale and step_throughput).
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};
/// Linear-interpolated quartiles; `values` must be non-empty.
Spread spread_of(const std::vector<double>& values);

/// Peak resident set size (VmHWM) of this process in bytes, read from
/// /proc/self/status; falls back to current RSS, and 0 where neither is
/// available (non-Linux). The memory-footprint figure of merit for the
/// fleet-scale benches.
std::size_t peak_rss_bytes();
/// Current resident set size (VmRSS) in bytes; 0 when unavailable.
std::size_t current_rss_bytes();
/// Re-arms the kernel's RSS high-water mark (writes "5" to
/// /proc/self/clear_refs) so peak_rss_bytes() measures only what follows.
/// Returns false when the kernel does not support resetting.
bool reset_peak_rss();

/// Opens options.out or falls back to stdout.
std::unique_ptr<util::CsvWriter> open_csv(const BenchOptions& options);

/// Pretty banner for bench stdout.
void print_banner(const std::string& title, const BenchOptions& options);

}  // namespace middlefl::bench
