// ScenarioSpec: the complete declarative description of one simulator run.
//
// One JSON document covers every layer the figure benches wire by hand:
// the synthetic task and its Non-IID partition, the edge topology and
// mobility process, the model architecture, the optimizer prototype, the
// learning-rate schedule, the algorithm policy, and the full
// core::SimulationConfig (nested transport link policies, fleet device
// state, serving and comm knobs). It is the only run description
// tools/middlefl_run reads; it changes a spec only through
// scenario_with_overrides (dotted path -> value): --set and --axes cells.
// scenario_build.hpp turns a spec into live simulator objects.
//
// Contract (see ARCHITECTURE.md "Declarative scenarios"):
//   - defaults live in the structs; absent JSON keys keep them;
//   - unknown keys are hard errors with file:line:column context;
//   - the writer emits every schema field in describe order, so
//     write -> read -> write is a byte-for-byte fixpoint;
//   - every setting has one spelling: the uplink loss and compression
//     live only under sim.transport.wireless_up, the carry link has no
//     policy, and a removed key is an unknown key like any other.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "config/reflect.hpp"
#include "core/simulation.hpp"
#include "data/synthetic.hpp"
#include "mobility/markov_mobility.hpp"
#include "nn/model_factory.hpp"
#include "transport/compression.hpp"

namespace middlefl::config {

/// Synthetic dataset + Non-IID partition + initial edge clustering.
struct DataSpec {
  std::string task = "mnist";  // mnist|emnist|cifar10|speech
  /// Spatial scale of the synthetic inputs, in (0, 1].
  double scale = 0.5;
  std::size_t train_per_class = 60;
  std::size_t test_per_class = 30;
  /// major-class|single-class|iid|dirichlet|fleet-window.
  std::string partition = "major-class";
  std::size_t devices = 50;
  /// Local dataset size d_m (major-class/single-class/fleet-window).
  std::size_t samples_per_device = 80;
  /// Major-class share for the major-class partition.
  double major_fraction = 0.9;
  /// Label-skew concentration for the dirichlet partition.
  double dirichlet_alpha = 0.5;
  /// by-major-class|uniform initial device->edge clustering.
  std::string edge_assignment = "by-major-class";
};

/// Mobility process. `model` selects which parameter block applies:
/// markov reads switch_prob/topology/home_bias, trace reads trace_file
/// (whose header must match the spec's edges and data.devices).
struct MobilitySpec {
  std::string model = "markov";  // markov|trace
  /// Markov move probability P (the Fig. 7 sweep axis).
  double switch_prob = 0.5;
  std::string topology = "home-ring";  // uniform|ring|home-ring
  double home_bias = 0.5;
  std::string trace_file;
};

/// Optimizer prototype cloned into every device runtime.
struct OptimizerSpec {
  std::string kind = "sgd";  // sgd|adam
  double learning_rate = 0.005;
  double momentum = 0.9;        // sgd
  double weight_decay = 0.0;
  double beta1 = 0.9;           // adam
  double beta2 = 0.999;         // adam
  double epsilon = 1e-8;        // adam
};

/// Declarative form of optim::LrSchedule (a std::function, which cannot
/// itself round-trip). kind "default" leaves SimulationConfig::lr_schedule
/// empty, preserving the simulator's historical constant-0.01 fallback;
/// "constant" holds base_lr; "theorem1" is the Theorem 1 decay.
struct LrScheduleSpec {
  std::string kind = "default";  // default|constant|theorem1
  double base_lr = 0.01;
  double mu = 0.1;               // theorem1
  double beta = 1.0;             // theorem1
};

/// The whole run description; see the header comment.
struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;
  std::size_t edges = 10;
  std::string algorithm = "middle";
  DataSpec data;
  MobilitySpec mobility;
  nn::ModelSpec model;
  OptimizerSpec optimizer;
  LrScheduleSpec lr_schedule;
  core::SimulationConfig sim;
};

// ---------------------------------------------------------------------------
// Leaf-count guards. config_test pins count_fields<T>() against these, so
// adding a struct member without a describe() entry fails the suite (and
// the sizeof static_assert in scenario.cpp catches SimulationConfig growth
// at compile time on the reference ABI).

/// SimulationConfig flattened: 5 loop + 2 aggregation + 4 eval + 20
/// transport (5 links x loss/kind/fraction/latency) + 1 fleet + 4 serving
/// + 2 comm + seed + 1 execution.
/// Excluded members: lr_schedule (std::function; declared via
/// LrScheduleSpec) and pool (runtime pointer).
inline constexpr std::size_t kSimulationConfigLeaves = 40;
/// ScenarioSpec flattened: 4 top-level + 10 data + 5 mobility + 3 model
/// + 7 optimizer + 4 lr_schedule + kSimulationConfigLeaves.
inline constexpr std::size_t kScenarioSpecLeaves =
    33 + kSimulationConfigLeaves;

// ---------------------------------------------------------------------------
// Choice-string helpers shared by the schemas below.

inline std::string require_name(const std::string& value,
                                std::initializer_list<std::string_view> legal,
                                const char* what) {
  for (const std::string_view option : legal) {
    if (option == value) return value;
  }
  throw std::invalid_argument(std::string("unknown ") + what + " '" + value +
                              "'");
}

inline std::string compression_kind_name(transport::CompressionKind kind) {
  switch (kind) {
    case transport::CompressionKind::kNone: return "none";
    case transport::CompressionKind::kTopK: return "topk";
    case transport::CompressionKind::kQuant8: return "q8";
  }
  return "none";
}

inline transport::CompressionKind parse_compression_kind_name(
    const std::string& name) {
  if (name == "none") return transport::CompressionKind::kNone;
  if (name == "topk") return transport::CompressionKind::kTopK;
  if (name == "q8") return transport::CompressionKind::kQuant8;
  throw std::invalid_argument("unknown compression kind '" + name + "'");
}

// ---------------------------------------------------------------------------
// Schemas.

template <>
struct Schema<transport::CompressionConfig> {
  template <class V>
  static void describe(V& v, transport::CompressionConfig& c) {
    v.choice("kind", compression_kind_name(c.kind), {"none", "topk", "q8"},
             [&c](const std::string& s) {
               c.kind = parse_compression_kind_name(s);
             });
    v.field("top_k_fraction", c.top_k_fraction);
  }
};

template <>
struct Schema<transport::LinkPolicy> {
  template <class V>
  static void describe(V& v, transport::LinkPolicy& p) {
    v.field("loss_prob", p.loss_prob);
    v.field("compression", p.compression);
    v.field("latency_steps", p.latency_steps);
  }
};

template <>
struct Schema<transport::TransportConfig> {
  template <class V>
  static void describe(V& v, transport::TransportConfig& t) {
    v.field("wireless_down", t.wireless_down);
    v.field("wireless_up", t.wireless_up);
    v.field("wan_up", t.wan_up);
    v.field("wan_down", t.wan_down);
    v.field("broadcast", t.broadcast);
  }
};

template <>
struct Schema<core::FleetConfig> {
  template <class V>
  static void describe(V& v, core::FleetConfig& f) {
    v.field("shards", f.shards);
  }
};

template <>
struct Schema<core::ServingConfig> {
  template <class V>
  static void describe(V& v, core::ServingConfig& s) {
    v.field("enabled", s.enabled);
    v.field("max_batch", s.max_batch);
    v.field("max_queue", s.max_queue);
    v.field("runtimes", s.runtimes);
  }
};

template <>
struct Schema<comm::CommConfig> {
  template <class V>
  static void describe(V& v, comm::CommConfig& c) {
    v.field("async_cloud", c.async_cloud);
    v.field("max_staleness", c.max_staleness);
  }
};

template <>
struct Schema<core::SimulationConfig> {
  template <class V>
  static void describe(V& v, core::SimulationConfig& c) {
    v.field("select_per_edge", c.select_per_edge);
    v.field("local_steps", c.local_steps);
    v.field("cloud_interval", c.cloud_interval);
    v.field("batch_size", c.batch_size);
    v.field("total_steps", c.total_steps);
    v.field("broadcast_to_devices", c.broadcast_to_devices);
    v.field("weighted_cloud_aggregation", c.weighted_cloud_aggregation);
    v.field("eval_every", c.eval_every);
    v.field("eval_samples", c.eval_samples);
    v.field("track_edge_accuracy", c.track_edge_accuracy);
    v.field("eval_edges", c.eval_edges);
    v.field("transport", c.transport);
    v.field("fleet", c.fleet);
    v.field("serving", c.serving);
    v.field("comm", c.comm);
    v.field("seed", c.seed);
    v.field("parallel_devices", c.parallel_devices);
  }
};

/// input_shape and num_classes are derived from the task preset at build
/// time, so only the free architecture knobs are part of the schema.
template <>
struct Schema<nn::ModelSpec> {
  template <class V>
  static void describe(V& v, nn::ModelSpec& m) {
    v.choice("arch", nn::to_string(m.arch),
             {"logistic", "mlp", "mlp2", "cnn2", "cnn3"},
             [&m](const std::string& s) { m.arch = nn::parse_model_arch(s); });
    v.field("hidden", m.hidden);
    v.field("base_channels", m.base_channels);
  }
};

template <>
struct Schema<DataSpec> {
  template <class V>
  static void describe(V& v, DataSpec& d) {
    v.choice("task", d.task, {"mnist", "emnist", "cifar10", "speech"},
             [&d](const std::string& s) {
               data::parse_task(s);
               d.task = s;
             });
    v.field("scale", d.scale);
    v.field("train_per_class", d.train_per_class);
    v.field("test_per_class", d.test_per_class);
    v.choice("partition", d.partition,
             {"major-class", "single-class", "iid", "dirichlet",
              "fleet-window"},
             [&d](const std::string& s) {
               d.partition = require_name(
                   s,
                   {"major-class", "single-class", "iid", "dirichlet",
                    "fleet-window"},
                   "partition scheme");
             });
    v.field("devices", d.devices);
    v.field("samples_per_device", d.samples_per_device);
    v.field("major_fraction", d.major_fraction);
    v.field("dirichlet_alpha", d.dirichlet_alpha);
    v.choice("edge_assignment", d.edge_assignment,
             {"by-major-class", "uniform"}, [&d](const std::string& s) {
               d.edge_assignment = require_name(
                   s, {"by-major-class", "uniform"}, "edge assignment");
             });
  }
};

template <>
struct Schema<MobilitySpec> {
  template <class V>
  static void describe(V& v, MobilitySpec& m) {
    v.choice("model", m.model, {"markov", "trace"},
             [&m](const std::string& s) {
               m.model = require_name(s, {"markov", "trace"},
                                      "mobility model");
             });
    v.field("switch_prob", m.switch_prob);
    v.choice("topology", m.topology, {"uniform", "ring", "home-ring"},
             [&m](const std::string& s) {
               mobility::parse_topology(s);
               m.topology = s;
             });
    v.field("home_bias", m.home_bias);
    v.field("trace_file", m.trace_file);
  }
};

template <>
struct Schema<OptimizerSpec> {
  template <class V>
  static void describe(V& v, OptimizerSpec& o) {
    v.choice("kind", o.kind, {"sgd", "adam"}, [&o](const std::string& s) {
      o.kind = require_name(s, {"sgd", "adam"}, "optimizer");
    });
    v.field("learning_rate", o.learning_rate);
    v.field("momentum", o.momentum);
    v.field("weight_decay", o.weight_decay);
    v.field("beta1", o.beta1);
    v.field("beta2", o.beta2);
    v.field("epsilon", o.epsilon);
  }
};

template <>
struct Schema<LrScheduleSpec> {
  template <class V>
  static void describe(V& v, LrScheduleSpec& l) {
    v.choice("kind", l.kind, {"default", "constant", "theorem1"},
             [&l](const std::string& s) {
               l.kind = require_name(s, {"default", "constant", "theorem1"},
                                     "lr schedule");
             });
    v.field("base_lr", l.base_lr);
    v.field("mu", l.mu);
    v.field("beta", l.beta);
  }
};

template <>
struct Schema<ScenarioSpec> {
  template <class V>
  static void describe(V& v, ScenarioSpec& s) {
    v.field("name", s.name);
    v.field("description", s.description);
    v.field("edges", s.edges);
    v.choice("algorithm", s.algorithm,
             {"middle", "oort", "fedmes", "greedy", "ensemble", "hierfavg"},
             [&s](const std::string& a) {
               core::parse_algorithm(a);
               s.algorithm = a;
             });
    v.field("data", s.data);
    v.field("mobility", s.mobility);
    v.field("model", s.model);
    v.field("optimizer", s.optimizer);
    v.field("lr_schedule", s.lr_schedule);
    v.field("sim", s.sim);
  }
};

// ---------------------------------------------------------------------------
// Load / save.

/// Decodes a parsed document into a spec (strict: unknown keys error).
/// `source_name` prefixes errors.
ScenarioSpec scenario_from_json(const Json& document,
                                const std::string& source_name);

/// Parses + decodes a JSON text.
ScenarioSpec parse_scenario(std::string_view text,
                            const std::string& source_name);

/// Reads, parses and decodes `path`.
ScenarioSpec load_scenario_file(const std::string& path);

/// Throws std::runtime_error naming both paths, at their values' positions
/// in `source`, when two keys of the object `overrides` are equal dotted
/// paths or one lies below the other (they would resolve last-wins).
void check_disjoint_paths(const Json& overrides, const std::string& source);

/// Splices `overrides`, a JSON object mapping dotted spec paths to values
/// (`middlefl_run --set`, or one `--axes` cell's values), into
/// `document` with set_by_path, then decodes the result strictly.
/// Overlapping paths are rejected (check_disjoint_paths). Each override
/// is first decoded on its own, so a bad path or value fails as
/// "<overrides_source>:<line>:<col>: <message> (path '<dotted.path>')",
/// positioned inside the overrides' own text; an error elsewhere names
/// `source_name`.
ScenarioSpec scenario_with_overrides(Json document,
                                     const std::string& source_name,
                                     const Json& overrides,
                                     const std::string& overrides_source);

/// Canonical JSON form: every schema field, describe order.
Json scenario_to_json(const ScenarioSpec& spec);

/// scenario_to_json rendered with 2-space indent and a trailing newline —
/// the byte-exact form shipped under examples/scenarios/.
std::string scenario_to_text(const ScenarioSpec& spec);

/// Writes scenario_to_text to `path`; throws std::runtime_error on I/O
/// failure.
void save_scenario_file(const ScenarioSpec& spec, const std::string& path);

}  // namespace middlefl::config
