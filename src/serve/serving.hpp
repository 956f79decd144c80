// Edge inference serving on top of the training stack.
//
// Each federated edge doubles as an inference server for the devices it
// covers: clients submit single samples, the edge coalesces whatever is
// pending into one batch sized for the GEMM micro-kernels, and the
// model being served is hot-swapped every time training republishes the
// edge's aggregate (EdgeAggregate / CloudSync) — readers never lock on the
// request path and can never observe a torn model, because models are
// immutable core::Snapshots swapped through a core::SnapshotSlot.
//
// Topology:
//
//   Simulation --EdgeModelSink--> ServingHub --publish--> EdgeServer[n]
//   client threads --submit(features, ticket)--> EdgeServer[n] queue
//   shared ThreadPool --drain task--> batch gather -> Sequential::predict
//
// ServingHub implements core::EdgeModelSink, so attaching it to a
// Simulation (set_edge_model_sink) is the only coupling between training
// and serving: the sink callback is a shared_ptr refcount bump plus an
// atomic version store — no RNG draws, no training-state mutation — which
// is why golden training fingerprints are bitwise identical with serving
// enabled (pipeline_test pins this).
//
// Batching/drain protocol (per edge): submit() appends to a small
// mutex-guarded queue and schedules ONE drain task on the shared pool if
// none is pending. The drain loop repeatedly moves up to max_batch
// requests out of the queue, gathers their features into a pooled batch
// tensor, refreshes the cached model from the slot (reload only when the
// published version moved), runs the forward-only predict() path (fused
// bias+ReLU epilogues, high-water activation buffers — zero steady-state
// allocation), and completes the tickets. When the queue is empty the
// drain un-schedules itself under the same mutex, so no wakeup is lost.
// Running drains on the training pool is deliberate: serving and training
// contend for the same workers, which is exactly the deployment the
// bench measures.
//
// Thread safety: submit() may be called from any thread; publish /
// on_edge_model from the (single) training writer per edge; configuration
// (set_observability, set_max_batch) only at serial points.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/serving_config.hpp"
#include "core/snapshot.hpp"
#include "nn/model_factory.hpp"
#include "obs/observability.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace middlefl::serve {

class EdgeServer;
class ServingHub;

/// Reusable completion slot for one in-flight request. A client arms the
/// ticket by submitting it, blocks in wait(), reads the result, and may
/// then submit the same ticket again — steady-state serving allocates
/// nothing per request. The caller's feature span must stay valid until
/// wait() returns.
class ServeTicket {
 public:
  using Clock = std::chrono::steady_clock;

  ServeTicket() = default;
  ServeTicket(const ServeTicket&) = delete;
  ServeTicket& operator=(const ServeTicket&) = delete;

  /// Blocks until the serving drain completes this ticket.
  void wait() const { done_.wait(false, std::memory_order_acquire); }
  bool done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

  /// Valid after wait(): predicted class, the version of the model that
  /// produced it, and the enqueue -> completion latency (server-side
  /// queueing + batching + forward; excludes client scheduling).
  std::int32_t prediction() const noexcept { return prediction_; }
  std::uint64_t model_version() const noexcept { return model_version_; }
  double latency_us() const noexcept { return latency_us_at(completed_); }

 private:
  friend class EdgeServer;

  /// Enqueue -> `done` in microseconds: latency_us() once `done` is the
  /// completion time.
  double latency_us_at(Clock::time_point done) const noexcept {
    return std::chrono::duration<double, std::micro>(done - enqueued_).count();
  }

  void arm(Clock::time_point now) noexcept {
    enqueued_ = now;
    done_.store(false, std::memory_order_relaxed);
  }
  void complete(std::int32_t prediction, std::uint64_t version,
                Clock::time_point now) noexcept {
    prediction_ = prediction;
    model_version_ = version;
    completed_ = now;
    done_.store(true, std::memory_order_release);
    done_.notify_one();
  }

  mutable std::atomic<bool> done_{false};
  std::int32_t prediction_ = -1;
  std::uint64_t model_version_ = 0;
  Clock::time_point enqueued_{};
  Clock::time_point completed_{};
};

/// One edge's serving endpoint: hot-swap slot + request queue. Created and
/// owned by ServingHub.
class EdgeServer {
 public:
  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  /// Enqueues one single-sample request. Returns false (and leaves the
  /// ticket un-armed) when the queue is at max_queue — the admission-
  /// control path — or when no model has been published yet. `features`
  /// must match the model's per-sample input and outlive ticket.wait().
  bool submit(std::span<const float> features, ServeTicket& ticket);

  /// Swaps the served model. Lock-free for readers: they see either the
  /// old or the new fully-sealed snapshot, never a mixture.
  void publish(const core::Snapshot& model);

  /// Version currently being served (0 = none published yet).
  std::uint64_t model_version() const noexcept { return slot_.version(); }

  std::size_t id() const noexcept { return id_; }

 private:
  friend class ServingHub;

  struct Pending {
    std::span<const float> features;
    ServeTicket* ticket = nullptr;
  };

  EdgeServer(std::size_t id, ServingHub* hub) : id_(id), hub_(hub) {}

  /// Drain task body: runs on the shared pool until the queue is empty.
  void drain();

  const std::size_t id_;
  ServingHub* const hub_;
  core::SnapshotSlot slot_;

  std::mutex mutex_;
  std::deque<Pending> queue_;
  bool drain_scheduled_ = false;
};

/// Owns the per-edge servers and a small pool of inference runtimes
/// (cloned models + pooled batch tensors). Implements core::EdgeModelSink
/// so a Simulation republishes every edge aggregate straight into the
/// matching EdgeServer.
class ServingHub final : public core::EdgeModelSink {
 public:
  /// `pool` runs the drain tasks; nullptr means drains run inline on the
  /// submitting thread (serial mode). `model_spec` must describe the same
  /// architecture the simulation trains (parameter counts must match the
  /// published snapshots).
  ServingHub(const core::ServingConfig& config, std::size_t num_edges,
             const nn::ModelSpec& model_spec, parallel::ThreadPool* pool);
  ~ServingHub() override;

  ServingHub(const ServingHub&) = delete;
  ServingHub& operator=(const ServingHub&) = delete;

  std::size_t num_edges() const noexcept { return servers_.size(); }
  EdgeServer& edge(std::size_t n) { return *servers_.at(n); }

  /// core::EdgeModelSink: called by the training side on every edge
  /// republish (aggregate, cloud sync, warm start, sink attach).
  void on_edge_model(std::size_t edge, const core::Snapshot& model) override;

  /// Attach metrics/trace sinks; must happen before traffic starts.
  /// Registers serve.requests / serve.served / serve.rejected /
  /// serve.batches / serve.model_swaps counters and the serve.latency_us /
  /// serve.batch_occupancy histograms.
  void set_observability(const obs::Observability& obs);

  /// Coalescing cap for subsequent drains (>= 1). Serial-point switch used
  /// by the A/B bench arms (1 = unbatched baseline).
  void set_max_batch(std::size_t n) noexcept {
    max_batch_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  std::size_t max_batch() const noexcept {
    return max_batch_.load(std::memory_order_relaxed);
  }
  const core::ServingConfig& config() const noexcept { return config_; }

  /// Blocks until every queue is empty and no drain task is running.
  /// Callers must have stopped submitting first (bench window boundary).
  void quiesce();

  /// Always-on relaxed counters (exact at serial points) so benches get
  /// totals without a MetricsRegistry attached.
  struct Stats {
    std::uint64_t submitted = 0;  // accepted into a queue
    std::uint64_t rejected = 0;   // queue full / no model yet
    std::uint64_t served = 0;     // tickets completed
    std::uint64_t batches = 0;    // predict() calls (served/batches = mean
                                  // batch occupancy)
    std::uint64_t publishes = 0;  // model hot-swaps (slot stores)
    std::uint64_t reloads = 0;    // runtime set_parameters refreshes
  };
  Stats stats() const noexcept;

 private:
  friend class EdgeServer;

  /// A cloned model + pooled buffers; borrowed by one drain at a time.
  struct InferenceRuntime {
    std::unique_ptr<nn::Sequential> model;
    std::uint64_t loaded_version = 0;  // version currently in model params
    core::Snapshot cached;             // SnapshotSlot::refresh cache
    tensor::Tensor batch;
    std::vector<std::int32_t> predictions;
    std::vector<EdgeServer::Pending> chunk;
    /// Lazily-built [rows, input...] shapes, indexed by rows, so steady-
    /// state drains never construct a Shape (no heap traffic).
    std::vector<tensor::Shape> shapes;
  };

  InferenceRuntime* acquire_runtime();
  void release_runtime(InferenceRuntime* runtime);
  const tensor::Shape& batch_shape(InferenceRuntime& runtime,
                                   std::size_t rows);
  void schedule_drain(EdgeServer& server);
  void note_drain_done();

  const core::ServingConfig config_;
  parallel::ThreadPool* const pool_;
  std::atomic<std::size_t> max_batch_;
  std::vector<std::unique_ptr<EdgeServer>> servers_;

  std::mutex runtime_mutex_;
  std::condition_variable runtime_cv_;
  std::vector<std::unique_ptr<InferenceRuntime>> runtimes_;
  std::vector<InferenceRuntime*> free_runtimes_;

  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  std::size_t active_drains_ = 0;

  obs::Observability obs_;
  obs::MetricsRegistry::MetricId requests_id_ = 0;
  obs::MetricsRegistry::MetricId served_id_ = 0;
  obs::MetricsRegistry::MetricId rejected_id_ = 0;
  obs::MetricsRegistry::MetricId batches_id_ = 0;
  obs::MetricsRegistry::MetricId swaps_id_ = 0;
  obs::MetricsRegistry::MetricId latency_id_ = 0;
  obs::MetricsRegistry::MetricId occupancy_id_ = 0;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> reloads_{0};
};

}  // namespace middlefl::serve
