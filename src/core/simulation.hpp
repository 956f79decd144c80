// The MIDDLE training loop (paper Algorithm 1), scheduled per edge.
//
// Each time step advances through six named phases:
//
//   Select        every edge picks K of its connected devices (Eq. 12)
//   Distribute    selected devices download the edge model; devices that
//                 just moved blend it with the model they carried
//                 (on-device aggregation, Eq. 9)
//   LocalTrain    I local SGD steps per participating device
//   Upload        trained models go back over the wireless uplink
//   EdgeAggregate each edge FedAvgs the uploads that arrived (Eq. 6); at
//                 round boundaries it then publishes its model over the
//                 WAN uplink into the cloud mailbox
//   CloudSync     every T_c steps the cloud FedAvgs the arrived edge models
//                 with participating-sample weights (Eq. 7) and broadcasts
//                 the global model down to every edge and device
//
// The phases are embarrassingly parallel PER EDGE: a device is connected
// to exactly one edge per step, cross-edge reads only touch the immutable
// begin-of-step snapshots, and edges couple only at cloud rounds. So
// instead of running six globally-barriered phase loops (4-5 pool joins a
// step), step() fans ONE fused
// Select->Distribute->LocalTrain->Upload->EdgeAggregate chain per edge out
// through parallel::parallel_for, whose workers claim one edge at a time,
// and joins the pool once; the only serial sections are the true
// dependencies — the mobility update and snapshotting at step begin, the
// cloud sync every T_c steps, and the step record. Both aggregations are
// one comm::InProcessCommunicator::all_reduce (the edge's runs inline
// inside its chain).
//
// The step-begin prologue costs O(movers), not O(fleet): the mobility
// model reports which devices changed edge, and each mover flips two bits
// in the per-edge membership rows (core::EdgeMembership, built once before
// the first advance), which also remember the edge each mover left. Both
// the advance and the membership update fan out over the pool in shards
// that depend only on the fleet and the mover list. A model that reports
// no movers costs one O(n) diff per step. Id-only
// selection picks positions 0..count-1 and maps its K picks to ids with
// one scan of the edge's row, so no step materializes a member list.
//
// Parameters move as version-stamped copy-on-write snapshots
// (core::Snapshot): Distribute hands devices the edge's published block (a
// refcount bump, not a memcpy), a private copy materializes on the first
// write (blend or SGD step), aggregates are sealed into fresh blocks
// (never written over a possibly-shared buffer), and the broadcast after
// CloudSync is one publish shared by every tier.
//
// Every inter-tier model transfer flows through a transport::Link with
// its own policy (loss, compression, latency-in-steps delay queues, byte
// accounting); each send hands the link its RNG stream and arena, and
// the link alone decides whether to draw or reconstruct. Each step ends
// with one obs::StepRecord (last_step()), built at the serial point after
// the cloud stage on bare and observed runs alike: per-link deltas are
// before/after reads of the link counters, and each chain's blend and
// dropout outcomes are merged from a private trace in canonical edge
// order. All randomness is keyed on (seed, entity, step), link counters
// are commutative atomics, and every cross-chain reduction commits
// serially in fixed edge order, so results are bit-identical regardless
// of thread count (pinned by pipeline_test and determinism_test).
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <memory>

#include "comm/communicator.hpp"
#include "comm/mailbox.hpp"
#include "core/algorithms.hpp"
#include "core/comm_stats.hpp"
#include "core/edge_membership.hpp"
#include "core/entities.hpp"
#include "core/fleet.hpp"
#include "core/metrics.hpp"
#include "core/serving_config.hpp"
#include "core/similarity_cache.hpp"
#include "core/snapshot.hpp"
#include "data/partition.hpp"
#include "mobility/mobility_model.hpp"
#include "nn/model_factory.hpp"
#include "obs/observability.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/optimizer.hpp"
#include "parallel/thread_pool.hpp"
#include "transport/transport.hpp"

namespace middlefl::core {

struct SimulationConfig {
  std::size_t select_per_edge = 5;   // K
  std::size_t local_steps = 10;      // I
  std::size_t cloud_interval = 10;   // T_c
  std::size_t batch_size = 16;
  std::size_t total_steps = 1000;    // T
  /// Per-step learning rate; defaults to constant 0.01 (the paper's SGD
  /// setting) when empty.
  optim::LrSchedule lr_schedule;
  /// Algorithm 1 lines 14-15: push the fresh global model to every device
  /// at sync. Disabling is an ablation that lets local models drift longer.
  bool broadcast_to_devices = true;
  /// Eq. 7 participating-sample weights d_hat_n; false = uniform edge
  /// weights (ablation 4 in DESIGN.md).
  bool weighted_cloud_aggregation = true;

  std::size_t eval_every = 10;
  /// Subsample size for periodic evaluation; 0 = the full test set.
  std::size_t eval_samples = 1000;
  /// Record each edge model's test accuracy at eval points.
  bool track_edge_accuracy = false;
  /// Master switch for the per-edge evaluation sweep: with it off,
  /// evaluate_now() only evaluates the cloud model even when
  /// track_edge_accuracy is set. Throughput benches turn it off — the
  /// edge sweep multiplies eval cost by num_edges for a curve they never
  /// consume.
  bool eval_edges = true;

  /// Per-link transport policies (loss, compression, latency) for the
  /// whole hierarchy. Defaults are perfect links.
  transport::TransportConfig transport;

  /// Device-state machinery (core/fleet.hpp): the registry shard count.
  FleetConfig fleet;

  /// Edge inference serving (src/serve): batch coalescing and runtime-pool
  /// sizing for the hub a serving-capable front end attaches. The
  /// simulator itself only republishes edge models through the sink hook.
  ServingConfig serving;

  /// Collectives layer (src/comm): the cloud round's admission rule. With
  /// comm.async_cloud off (the default) the cloud applies every T_c steps,
  /// each arrival at full weight: the synchronous Algorithm 1. Async mode
  /// applies every step and admits contributions up to comm.max_staleness
  /// rounds old, discounted.
  comm::CommConfig comm;

  std::uint64_t seed = 42;
  /// Run the per-edge task chains (and sharded evaluation) on the thread
  /// pool. Results are bitwise identical either way.
  bool parallel_devices = true;
  /// Pool for all intra-step parallelism; nullptr = the process-wide pool
  /// (parallel::ThreadPool::global()). Lets tests and benches pin exact
  /// worker counts without touching the shared pool.
  parallel::ThreadPool* pool = nullptr;
};

class Simulation {
 public:
  /// `partition.device_indices.size()` fixes the device count and must
  /// match `mobility->num_devices()`. All models start from one common
  /// initialization drawn from cfg.seed.
  Simulation(SimulationConfig cfg, const nn::ModelSpec& model_spec,
             const optim::Optimizer& optimizer_prototype,
             const data::Dataset& train, const data::Partition& partition,
             const data::Dataset& test,
             std::unique_ptr<mobility::MobilityModel> mobility,
             AlgorithmSpec algorithm);

  /// Advances one time step (t starts at 1): per-edge task chains on the
  /// pool, then the serial cloud sync when due, then the step record
  /// (last_step()). Returns true if a cloud synchronization happened this
  /// step.
  bool step();

  /// Runs the remaining steps up to cfg.total_steps, evaluating on the
  /// configured schedule. `progress` (optional) is invoked after each
  /// evaluation with the fresh point.
  RunHistory run(
      const std::function<void(const EvalPoint&)>& progress = nullptr);

  /// Evaluates the current global model immediately and appends the point
  /// to the history.
  const EvalPoint& evaluate_now();

  /// Warm start: installs `params` (e.g. a loaded checkpoint) as the global
  /// model on the cloud, every edge and every device, exactly like a cloud
  /// synchronization broadcast — one published snapshot shared by every
  /// tier. Size must equal the model's param count. An out-of-band
  /// operator action, not network traffic: no link is charged.
  void warm_start(std::span<const float> params);

  /// Attaches the observability bundle (all recorders non-owning, any
  /// subset may be null; they must outlive the simulation). Fans the trace
  /// recorder out to the evaluator and the communicator and registers the
  /// simulator's metric ids. With every pointer null (the default) the
  /// instrumentation collapses to one branch per step — no clock reads —
  /// and recording never mutates simulation state or consumes RNG draws,
  /// so instrumented runs are bit-identical to bare ones.
  void set_observability(const obs::Observability& obs);
  const obs::Observability& observability() const noexcept { return obs_; }

  /// Attaches the serving hot-swap hook (non-owning; nullptr detaches; the
  /// sink must outlive the simulation or be detached first). Every edge's
  /// CURRENT model is published immediately, then republished whenever it
  /// changes: at the end of its EdgeAggregate (inside that edge's chain —
  /// one writer per edge) and after the CloudSync broadcast (serial).
  /// Publication shares immutable blocks and consumes no RNG draws, so
  /// attaching a sink never perturbs training (pinned by serve_test).
  void set_edge_model_sink(EdgeModelSink* sink);

  /// Wall-microsecond phase totals of one step (see obs::StepPhaseUs).
  /// Filled only while observability is attached (all zeros on bare runs
  /// — timing is part of the obs-off "no clock reads" contract).
  using StepPhaseUs = obs::StepPhaseUs;

  // --- Introspection (benches, tests) ---
  std::size_t current_step() const noexcept { return t_; }
  /// The record of the LAST step, rebuilt in place at the end of every
  /// step(): counts, per-link deltas and the cloud sync outcome on every
  /// run; step_wall_us, phase_us and resident_peak only while
  /// observability is attached (zero on bare runs). The attached
  /// RunLogger writes exactly this record.
  const obs::StepRecord& last_step() const noexcept { return last_step_; }
  /// Phase breakdown of the LAST step (last_step().phase_us).
  const StepPhaseUs& last_step_phase_us() const noexcept {
    return last_step_.phase_us;
  }
  /// Devices connected to each edge as of the last step, each list
  /// ascending by id: the candidate sets, materialized from the membership
  /// rows (O(n) per call; empty before the first step).
  std::vector<std::vector<std::size_t>> edge_members() const;
  /// The membership rows behind edge_members(): counts, this step's movers
  /// and the edge each one left (previous_edge).
  const EdgeMembership& membership() const noexcept { return membership_; }
  std::size_t num_devices() const noexcept { return registry_.size(); }
  std::size_t num_edges() const noexcept { return edges_.size(); }
  std::span<const float> cloud_params() const { return cloud_.params(); }
  /// The global model as the shared block edges and devices adopt.
  const Snapshot& cloud_snapshot() const noexcept { return cloud_.snapshot(); }
  std::span<const float> edge_params(std::size_t n) const {
    return edges_.at(n).params();
  }
  /// A handle to device m (a registry pointer and the id).
  Device device(std::size_t m) { return registry_.at(m); }
  /// The device registry: fleet accounting (materializations, resident
  /// peaks, hot entries) lives here.
  const DeviceRegistry& fleet() const noexcept { return registry_; }
  const std::vector<std::size_t>& assignment() const {
    return mobility_->assignment();
  }
  /// Devices selected at the last step, grouped by edge.
  const std::vector<std::vector<std::size_t>>& last_selection() const {
    return last_selection_;
  }
  const RunHistory& history() const noexcept { return history_; }
  Evaluator& evaluator() noexcept { return *evaluator_; }
  const SimulationConfig& config() const noexcept { return cfg_; }

  /// The typed links every model transfer flows through; per-link traffic
  /// reports live here (transport().bytes_by_link()).
  transport::Transport& transport() noexcept { return *transport_; }
  const transport::Transport& transport() const noexcept {
    return *transport_;
  }

  /// Model-transfer counts since construction, read off the transport's
  /// per-link counters — the one traffic ledger (see comm_stats.hpp).
  CommStats comm_stats() const;
  /// Uploads dropped by the wireless uplink's loss policy so far.
  std::size_t failed_uploads() const noexcept {
    return transport_->stats(transport::LinkKind::kWirelessUp).dropped;
  }
  /// Edge-model downloads lost to the wireless downlink's loss policy so
  /// far; the affected device sits the round out.
  std::size_t lost_downloads() const noexcept {
    return transport_->stats(transport::LinkKind::kWirelessDown).dropped;
  }
  /// Simulated device->edge uplink bytes (after compression) so far.
  std::size_t upload_bytes() const noexcept {
    return transport_->stats(transport::LinkKind::kWirelessUp).bytes;
  }

  /// Mean total-variation skew of the CURRENT per-edge data mixtures
  /// relative to the global mixture (see core::mean_edge_skew).
  double current_edge_skew() const;

  /// Count of on-device aggregations applied so far and the running mean
  /// blend weight given to the carried local model.
  std::size_t on_device_aggregations() const noexcept { return blends_; }
  double mean_blend_weight() const noexcept {
    return blends_ == 0 ? 0.0 : blend_weight_sum_ / static_cast<double>(blends_);
  }
  /// Selection-score cache hit/miss counters (throughput introspection).
  /// Eq. 11 scores are reused across steps for (device, cloud) version
  /// pairs that have not changed — pure acceleration, the selected ids are
  /// identical without it (pinned by similarity_cache_test).
  const SimilarityCache& similarity_cache() const noexcept {
    return similarity_cache_;
  }

  /// Weighted averages computed since construction (every edge
  /// aggregation and cloud apply is one).
  comm::CommCounters comm_reduce_counters() const noexcept {
    return communicator_->counters();
  }
  /// Semi-async sync counters (published/applied/deferred/dropped-stale);
  /// all zero when comm.async_cloud is off. Cross-checks against the step
  /// records: published equals the summed wan_up transfers, applied the
  /// summed contributing_edges of synced steps, applies their count.
  const comm::AsyncStats& async_stats() const noexcept {
    return async_stats_;
  }

 private:
  /// The outcomes a fused edge chain must not publish directly while other
  /// chains run: dropout counts and ordered blend weights. record_step()
  /// merges them in canonical edge order at the serial point.
  struct EdgeTrace {
    std::size_t lost_downloads = 0;
    /// Blend weights in selection order (the canonical reduction order).
    std::vector<double> blend_weights;
    /// Per-phase wall microseconds of this chain (Select..EdgeAggregate),
    /// filled only when observability is attached; record_step sums them.
    double phase_us[5] = {};
  };

  /// Metric ids registered once by set_observability().
  struct SimMetricIds {
    obs::MetricsRegistry::MetricId steps = 0;
    obs::MetricsRegistry::MetricId movers = 0;
    obs::MetricsRegistry::MetricId cloud_syncs = 0;
    obs::MetricsRegistry::MetricId selected = 0;
    obs::MetricsRegistry::MetricId lost_downloads = 0;
    obs::MetricsRegistry::MetricId blends = 0;
    obs::MetricsRegistry::MetricId evaluations = 0;
    obs::MetricsRegistry::MetricId step_ms = 0;  // histogram
    obs::MetricsRegistry::MetricId fleet_materializations = 0;
    obs::MetricsRegistry::MetricId fleet_resident = 0;     // gauge
    obs::MetricsRegistry::MetricId fleet_detached = 0;     // gauge
    obs::MetricsRegistry::MetricId comm_reduces = 0;
    obs::MetricsRegistry::MetricId comm_published = 0;
    obs::MetricsRegistry::MetricId comm_applied = 0;
    obs::MetricsRegistry::MetricId comm_deferred = 0;
    obs::MetricsRegistry::MetricId comm_dropped_stale = 0;
  };

  // Serial step prologue: mobility advance, per-edge membership, immutable
  // edge snapshots.
  void begin_step();
  // The fused per-edge task: Select -> Distribute -> LocalTrain -> Upload
  // -> EdgeAggregate for edge n, touching only edge-n/device-owned state.
  void edge_chain(std::size_t n);
  void select_edge(std::size_t n);
  void distribute_edge(std::size_t n, EdgeTrace& trace);
  void train_edge(std::size_t n);
  void upload_edge(std::size_t n);
  void aggregate_edge(std::size_t n);
  // The cloud -> device broadcast of the global model (both sync modes):
  // one registry block swap on a perfect link, the per-device loop when
  // the link draws losses or compresses.
  void broadcast_devices();
  // The edge's end-of-chain WAN publish at round boundaries (both sync
  // modes): send over wan_up (shard n, so concurrent chains never
  // contend) and post the result into the cloud mailbox; resets
  // participation.
  void publish_edge(std::size_t n);
  // The one serial cloud stage (Eq. 7): drains each edge's due WAN
  // arrivals and mailbox post in edge order, admits them (sync: full
  // weight; async: bounded staleness), reduces and seals the new global
  // model, pushes it down over wan_down and broadcasts
  // at round boundaries. Runs at boundaries in sync mode and every step in
  // async mode; returns true when it completed a cloud round.
  bool stage_cloud_apply();
  // Fills last_step_'s counts and link deltas at the serial end of every
  // step, merging the chain traces in canonical edge order (plus the
  // chain phase sums and dropout/blend markers when observed).
  void record_step(bool sync);
  // End-of-step observability flush (serial point): the record's wall time
  // and resident peak, the step span, metric increments and the JSONL
  // line. Called only when obs_.enabled().
  void finish_step_obs(obs::TraceRecorder::Clock::time_point begin);

  /// Adopts `source` when the delivered payload is a lossless pass-through
  /// of its block (zero-copy sharing); writes the device's own copy
  /// otherwise.
  void install_download(Device device, std::span<const float> payload,
                        const Snapshot& source);

  SimulationConfig cfg_;
  AlgorithmSpec algorithm_;
  DeviceRegistry registry_;
  std::vector<Edge> edges_;
  Cloud cloud_;
  std::unique_ptr<mobility::MobilityModel> mobility_;
  std::unique_ptr<Evaluator> evaluator_;
  std::unique_ptr<transport::Transport> transport_;
  parallel::StreamRng streams_;
  /// Resolved from cfg (parallel_devices / pool); nullptr = fully serial.
  parallel::ThreadPool* pool_ = nullptr;
  std::size_t param_count_ = 0;
  std::size_t t_ = 0;
  std::vector<std::vector<std::size_t>> last_selection_;
  // Edge models of this step (w^t_n) as O(1) shared snapshots, taken at
  // step begin so training initialization and FedMes' prev-edge lookup
  // never observe partial aggregation — including across concurrently
  // running chains, since a chain publishes a NEW block instead of
  // mutating the snapshotted one.
  std::vector<Snapshot> edge_snapshot_;
  SimilarityCache similarity_cache_;
  // Step-scratch state, all indexed per edge (each chain writes only its
  // own slot) or per device (each device belongs to one chain), reused
  // across steps to keep the hot loop allocation-light.
  /// Per-edge member rows and each device's edge, moved bit by bit from the
  /// mover delta at step begin (built before the first advance).
  EdgeMembership membership_;
  /// 0, 1, 2, ...: the positions id-only selection picks from (grown to
  /// the largest edge).
  std::vector<std::size_t> ranks_;
  std::vector<std::vector<Candidate>> candidates_;
  /// Per edge, parallel to last_selection_[n]: 1 when that selected device
  /// sits the round out (its download was lost).
  std::vector<std::vector<std::uint8_t>> sits_out_;
  std::vector<EdgeTrace> traces_;
  // Per-edge upload arrivals feeding EdgeAggregate: payload views into
  // device params, per-edge reconstruction arenas (compressed uploads), or
  // stale uplink arrivals drained from the delay queue.
  struct UploadArrival {
    std::span<const float> payload;
    double weight = 0.0;
  };
  std::vector<std::vector<UploadArrival>> arrivals_;
  std::vector<std::vector<std::vector<float>>> recon_arena_;
  std::vector<std::vector<transport::Arrival>> stale_uploads_;
  // CloudSync scratch: compressed-reconstruction storage of the serial
  // wan_down pushes (the device broadcast scopes its own per push).
  std::vector<std::vector<float>> wan_arena_;
  // The weighted average both aggregation sites call.
  std::unique_ptr<comm::InProcessCommunicator> communicator_;
  // One contribution an edge chain publishes at its round boundary;
  // consumed serially by stage_cloud_apply.
  struct CloudContribution {
    Snapshot shared;           // lossless pass-through: share the block
    std::vector<float> owned;  // otherwise: the reconstructed payload
    double weight = 0.0;
    std::size_t sent_step = 0;  // async staleness: sent_step / T_c
    bool queued = false;        // in the WAN delay queue, arrives later
    bool dropped = false;       // lost to the WAN loss policy
    std::span<const float> view() const noexcept {
      return shared != nullptr ? shared->span()
                               : std::span<const float>(owned);
    }
  };
  comm::Mailbox<CloudContribution> cloud_mailbox_;
  comm::AsyncStats async_stats_;
  // Per-edge async bookkeeping. fold_credit_ carries the weight of
  // contributions dropped past the staleness bound into the edge's next
  // accepted one. The anchor_* arrays remember each edge's last applied
  // (raw weight, round): when a new batch lands, still-fresh absent edges
  // anchor the current global with their decayed weight so one straggler
  // batch cannot wipe the mass already folded in.
  std::vector<double> fold_credit_;
  std::vector<double> anchor_weight_;
  std::vector<std::uint64_t> anchor_round_;
  std::vector<std::uint8_t> anchor_valid_;
  RunHistory history_;
  std::size_t blends_ = 0;
  double blend_weight_sum_ = 0.0;
  obs::Observability obs_;
  EdgeModelSink* serving_sink_ = nullptr;
  SimMetricIds metric_ids_;
  // The record of the last step, rebuilt in place by every step().
  obs::StepRecord last_step_;
  // Link and fleet counters at step begin, for the record's deltas.
  std::array<transport::LinkStats, obs::kStepLinks> links_before_{};
  std::uint64_t prev_materializations_ = 0;
  // Comm counters at step begin (observed steps), for per-step deltas.
  comm::CommCounters prev_comm_counters_;
  comm::AsyncStats prev_async_stats_;
};

}  // namespace middlefl::core
