#include "serve/serving.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace middlefl::serve {

namespace {

/// Upper bucket bounds for serve.latency_us: sub-millisecond resolution at
/// the bottom (single-sample forwards on small models), tapering to 1 s.
std::vector<double> latency_bounds() {
  return {50.0,    100.0,   250.0,   500.0,    1000.0,   2500.0,  5000.0,
          10000.0, 25000.0, 50000.0, 100000.0, 250000.0, 1.0e6};
}

/// serve.batch_occupancy bounds: powers of two up to the largest
/// reasonable coalescing cap.
std::vector<double> occupancy_bounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};
}

}  // namespace

// ---------------------------------------------------------------------------
// EdgeServer

bool EdgeServer::submit(std::span<const float> features, ServeTicket& ticket) {
  ServingHub& hub = *hub_;
  bool accepted = false;
  bool need_schedule = false;
  if (slot_.version() != 0) {
    ticket.arm(ServeTicket::Clock::now());
    std::lock_guard lock(mutex_);
    if (queue_.size() < hub.config_.max_queue) {
      queue_.push_back(Pending{features, &ticket});
      need_schedule = !drain_scheduled_;
      drain_scheduled_ = true;
      accepted = true;
    }
  }
  if (!accepted) {
    hub.rejected_.fetch_add(1, std::memory_order_relaxed);
    if (hub.obs_.metrics != nullptr) hub.obs_.metrics->add(hub.rejected_id_);
    return false;
  }
  hub.submitted_.fetch_add(1, std::memory_order_relaxed);
  if (hub.obs_.metrics != nullptr) hub.obs_.metrics->add(hub.requests_id_);
  if (need_schedule) hub.schedule_drain(*this);
  return true;
}

void EdgeServer::publish(const core::Snapshot& model) {
  slot_.publish(model);
}

void EdgeServer::drain() {
  ServingHub& hub = *hub_;
  ServingHub::InferenceRuntime* rt = hub.acquire_runtime();
  const tensor::Shape& input_shape = rt->model->input_shape();
  const std::size_t sample_len = input_shape.numel();
  for (;;) {
    const std::size_t cap = hub.max_batch();
    rt->chunk.clear();
    {
      std::lock_guard lock(mutex_);
      if (queue_.empty()) {
        // Un-schedule under the queue mutex: a submit that raced past the
        // emptiness check sees drain_scheduled_ == false and schedules a
        // fresh drain — no lost wakeup.
        drain_scheduled_ = false;
        break;
      }
      const std::size_t take = std::min(cap, queue_.size());
      for (std::size_t i = 0; i < take; ++i) {
        rt->chunk.push_back(queue_.front());
        queue_.pop_front();
      }
    }
    const std::size_t rows = rt->chunk.size();
    obs::TraceSpan span(hub.obs_.trace, "serve_batch", "serve", rows, "rows");

    // Hot-swap check: one acquire load per batch; reload parameters only
    // when training republished since the last batch this runtime ran.
    slot_.refresh(rt->cached);
    const std::uint64_t version = rt->cached->version();
    if (version != rt->loaded_version) {
      rt->model->set_parameters(rt->cached->span());
      rt->loaded_version = version;
      hub.reloads_.fetch_add(1, std::memory_order_relaxed);
    }

    // Gather the single-sample requests into one pooled batch tensor and
    // run the forward-only fused path. Steady state touches no heap: the
    // shape is cached per row count, the tensor keeps its high-water
    // allocation, and predictions/chunk only grow to max_batch once.
    rt->batch.reset_for_overwrite(hub.batch_shape(*rt, rows));
    float* dst = rt->batch.data().data();
    for (const Pending& pending : rt->chunk) {
      std::memcpy(dst, pending.features.data(), sample_len * sizeof(float));
      dst += sample_len;
    }
    if (rt->predictions.size() < rows) rt->predictions.resize(rows);
    const std::span<std::int32_t> out =
        std::span(rt->predictions).first(rows);
    rt->model->predict(rt->batch, out);

    const auto now = ServeTicket::Clock::now();
    if (hub.obs_.metrics != nullptr) {
      // Observe before complete(): once a ticket is done its client may
      // re-arm it, so its enqueue time is only stable until then.
      for (std::size_t i = 0; i < rows; ++i) {
        hub.obs_.metrics->observe(hub.latency_id_,
                                  rt->chunk[i].ticket->latency_us_at(now));
      }
    }
    for (std::size_t i = 0; i < rows; ++i) {
      rt->chunk[i].ticket->complete(out[i], version, now);
    }
    hub.served_.fetch_add(rows, std::memory_order_relaxed);
    hub.batches_.fetch_add(1, std::memory_order_relaxed);
    if (hub.obs_.metrics != nullptr) {
      hub.obs_.metrics->add(hub.served_id_, static_cast<double>(rows));
      hub.obs_.metrics->add(hub.batches_id_);
      hub.obs_.metrics->observe(hub.occupancy_id_,
                                static_cast<double>(rows));
    }
  }
  hub.release_runtime(rt);
  hub.note_drain_done();
}

// ---------------------------------------------------------------------------
// ServingHub

ServingHub::ServingHub(const core::ServingConfig& config,
                       std::size_t num_edges, const nn::ModelSpec& model_spec,
                       parallel::ThreadPool* pool)
    : config_(config),
      pool_(pool),
      max_batch_(std::max<std::size_t>(1, config.max_batch)) {
  servers_.reserve(num_edges);
  for (std::size_t n = 0; n < num_edges; ++n) {
    servers_.emplace_back(new EdgeServer(n, this));
  }
  const std::size_t count = std::max<std::size_t>(1, config.runtimes);
  runtimes_.reserve(count);
  free_runtimes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto runtime = std::make_unique<InferenceRuntime>();
    // Seed is irrelevant: parameters are always overwritten from a
    // published snapshot before the first predict().
    runtime->model = nn::build_model(model_spec, /*seed=*/0);
    free_runtimes_.push_back(runtime.get());
    runtimes_.push_back(std::move(runtime));
  }
}

ServingHub::~ServingHub() { quiesce(); }

void ServingHub::on_edge_model(std::size_t edge, const core::Snapshot& model) {
  if (edge >= servers_.size() || model == nullptr) return;
  servers_[edge]->publish(model);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  if (obs_.metrics != nullptr) obs_.metrics->add(swaps_id_);
}

void ServingHub::set_observability(const obs::Observability& obs) {
  obs_ = obs;
  if (obs_.metrics != nullptr) {
    requests_id_ = obs_.metrics->counter("serve.requests");
    served_id_ = obs_.metrics->counter("serve.served");
    rejected_id_ = obs_.metrics->counter("serve.rejected");
    batches_id_ = obs_.metrics->counter("serve.batches");
    swaps_id_ = obs_.metrics->counter("serve.model_swaps");
    latency_id_ = obs_.metrics->histogram("serve.latency_us", latency_bounds());
    occupancy_id_ =
        obs_.metrics->histogram("serve.batch_occupancy", occupancy_bounds());
  }
}

void ServingHub::quiesce() {
  std::unique_lock lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, [this] {
    if (active_drains_ != 0) return false;
    for (const auto& server : servers_) {
      std::lock_guard queue_lock(server->mutex_);
      if (!server->queue_.empty()) return false;
    }
    return true;
  });
}

ServingHub::Stats ServingHub::stats() const noexcept {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.reloads = reloads_.load(std::memory_order_relaxed);
  return s;
}

const tensor::Shape& ServingHub::batch_shape(InferenceRuntime& runtime,
                                             std::size_t rows) {
  if (runtime.shapes.size() <= rows) runtime.shapes.resize(rows + 1);
  if (runtime.shapes[rows].rank() == 0) {
    const tensor::Shape& input = runtime.model->input_shape();
    std::vector<std::size_t> dims;
    dims.reserve(input.rank() + 1);
    dims.push_back(rows);
    dims.insert(dims.end(), input.dims().begin(), input.dims().end());
    runtime.shapes[rows] = tensor::Shape(std::move(dims));
  }
  return runtime.shapes[rows];
}

ServingHub::InferenceRuntime* ServingHub::acquire_runtime() {
  std::unique_lock lock(runtime_mutex_);
  // Blocking is deadlock-free: runtimes are held only for the duration of
  // one drain() call (never across a task boundary), so every holder makes
  // progress and releases without waiting on anything else.
  runtime_cv_.wait(lock, [this] { return !free_runtimes_.empty(); });
  InferenceRuntime* runtime = free_runtimes_.back();
  free_runtimes_.pop_back();
  return runtime;
}

void ServingHub::release_runtime(InferenceRuntime* runtime) {
  {
    std::lock_guard lock(runtime_mutex_);
    free_runtimes_.push_back(runtime);
  }
  runtime_cv_.notify_one();
}

void ServingHub::schedule_drain(EdgeServer& server) {
  {
    std::lock_guard lock(quiesce_mutex_);
    ++active_drains_;
  }
  if (pool_ != nullptr) {
    pool_->submit([&server] { server.drain(); });
  } else {
    server.drain();
  }
}

void ServingHub::note_drain_done() {
  // Notify under the lock: once the count reaches zero, quiesce() may
  // return and ~ServingHub destroy the condition variable, which it can
  // only do after taking this mutex, i.e. after notify_all() finished.
  std::lock_guard lock(quiesce_mutex_);
  --active_drains_;
  quiesce_cv_.notify_all();
}

}  // namespace middlefl::serve
