#include "core/simulation.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "parallel/parallel_for.hpp"
#include "tensor/workspace.hpp"

namespace middlefl::core {
namespace {

double elapsed_us(obs::TraceRecorder::Clock::time_point begin,
                  obs::TraceRecorder::Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

// Stream tags keep the per-purpose RNG streams disjoint. Every send hands
// its link a stream, but a link draws from it only under a nonzero loss
// policy, so tags added for the transport layer never perturb
// default-policy runs. Streams are keyed on (tag, entity, step) and every
// entity is processed by exactly one chain, so draws are identical no
// matter how chains interleave.
constexpr std::uint64_t kSelectTag = 0x5E1EC7;
constexpr std::uint64_t kTrainTag = 0x7EA1;
constexpr std::uint64_t kUploadTag = 0xFA11;     // wireless uplink loss
constexpr std::uint64_t kDownlinkTag = 0xD07;    // wireless downlink loss
constexpr std::uint64_t kWanUpTag = 0x3A9C10;    // WAN uplink loss
constexpr std::uint64_t kWanDownTag = 0x3A9C11;  // WAN downlink loss
constexpr std::uint64_t kBroadcastTag = 0xB9CA;  // broadcast loss

// The step record holds one link slot per LinkKind, in enum order.
static_assert(std::size(transport::kAllLinkKinds) == obs::kStepLinks);
std::size_t slot(transport::LinkKind kind) {
  return static_cast<std::size_t>(kind);
}

}  // namespace

Simulation::Simulation(SimulationConfig cfg, const nn::ModelSpec& model_spec,
                       const optim::Optimizer& optimizer_prototype,
                       const data::Dataset& train,
                       const data::Partition& partition,
                       const data::Dataset& test,
                       std::unique_ptr<mobility::MobilityModel> mobility,
                       AlgorithmSpec algorithm)
    : cfg_(std::move(cfg)),
      algorithm_(std::move(algorithm)),
      cloud_(0),
      mobility_(std::move(mobility)),
      streams_(cfg_.seed) {
  if (mobility_ == nullptr) {
    throw std::invalid_argument("Simulation: null mobility model");
  }
  if (partition.num_devices() != mobility_->num_devices()) {
    throw std::invalid_argument(
        "Simulation: partition has " + std::to_string(partition.num_devices()) +
        " devices but mobility has " +
        std::to_string(mobility_->num_devices()));
  }
  if (mobility_->num_edges() > EdgeMembership::kMaxEdges) {
    throw std::invalid_argument(
        "Simulation: " + std::to_string(mobility_->num_edges()) +
        " edges past the " + std::to_string(EdgeMembership::kMaxEdges) +
        " the membership map can name");
  }
  if (algorithm_.selection == nullptr) {
    throw std::invalid_argument("Simulation: algorithm has no selection strategy");
  }
  if (!cfg_.lr_schedule) {
    cfg_.lr_schedule = optim::constant_lr(0.01);
  }
  if (cfg_.select_per_edge == 0 || cfg_.local_steps == 0 ||
      cfg_.cloud_interval == 0 || cfg_.batch_size == 0 ||
      cfg_.eval_every == 0) {
    throw std::invalid_argument(
        "Simulation: K, I, T_c, batch and eval_every must be positive");
  }

  pool_ = cfg_.parallel_devices
              ? (cfg_.pool != nullptr ? cfg_.pool
                                      : &parallel::ThreadPool::global())
              : nullptr;
  // Models with order-free per-device transitions shard advance() over the
  // same pool the chains run on; serial models ignore the hint. The
  // membership update that follows each advance shards over it too.
  mobility_->set_pool(pool_);
  membership_.set_pool(pool_);

  // Common initialization: one model drawn from the seed, copied everywhere
  // (cloud, edges, devices all start aligned, as in Algorithm 1's t = 0).
  auto init_model = nn::build_model(model_spec, cfg_.seed);
  param_count_ = init_model->param_count();

  cloud_ = Cloud(param_count_);
  cloud_.set_params(init_model->parameters());

  const std::size_t num_edges = mobility_->num_edges();
  edges_.reserve(num_edges);
  for (std::size_t n = 0; n < num_edges; ++n) {
    edges_.emplace_back(n, param_count_);
    edges_.back().adopt(cloud_.snapshot());
  }

  // One uplink delay-queue shard per edge: a chain enqueues into and
  // drains only its own shard, without locks. (The WAN uplink shares the
  // shard count for the per-edge publishes.)
  transport_ = std::make_unique<transport::Transport>(cfg_.transport, num_edges);

  // The one weighted average behind both aggregation sites.
  communicator_ = std::make_unique<comm::InProcessCommunicator>(pool_);
  cloud_mailbox_.resize(num_edges);
  fold_credit_.assign(num_edges, 0.0);
  anchor_weight_.assign(num_edges, 0.0);
  anchor_round_.assign(num_edges, 0);
  anchor_valid_.assign(num_edges, 0);

  const std::size_t num_devices = partition.num_devices();
  registry_.configure(cfg_.fleet);
  // Only strategies that rank on candidate metadata read stat utilities.
  registry_.track_stat_utility(algorithm_.selection->needs_metadata());
  registry_.set_prototypes(*init_model, optimizer_prototype);
  // Every device starts following the common init block: cold column
  // entries, no snapshot reference and no hot entry of its own.
  registry_.set_data(train, partition);
  registry_.broadcast(cloud_.snapshot());
  // Only strategies that score candidate parameters read the cache.
  if (algorithm_.selection->needs_params()) {
    similarity_cache_.resize(num_devices);
  }

  evaluator_ = std::make_unique<Evaluator>(
      init_model->clone(), data::DataView::all(test));
  evaluator_->set_pool(pool_);
  history_.algorithm = algorithm_.name;
  for (const transport::LinkKind kind : transport::kAllLinkKinds) {
    last_step_.links[slot(kind)].link = transport::to_string(kind);
  }
}

CommStats Simulation::comm_stats() const {
  const auto transfers = [this](transport::LinkKind kind) {
    return transport_->stats(kind).transfers;
  };
  return CommStats{
      .device_downloads = transfers(transport::LinkKind::kWirelessDown),
      .device_uploads = transfers(transport::LinkKind::kWirelessUp),
      .edge_uploads = transfers(transport::LinkKind::kWanUp),
      .edge_downloads = transfers(transport::LinkKind::kWanDown),
      .device_broadcasts = transfers(transport::LinkKind::kBroadcast),
  };
}

void Simulation::set_observability(const obs::Observability& obs) {
  obs_ = obs;
  evaluator_->set_trace(obs_.trace);
  communicator_->set_trace(obs_.trace);
  if (obs_.trace != nullptr) obs_.trace->name_this_thread("sim");
  if (obs_.metrics != nullptr) {
    obs::MetricsRegistry& m = *obs_.metrics;
    metric_ids_.steps = m.counter("sim.steps");
    metric_ids_.movers = m.counter("sim.movers");
    metric_ids_.cloud_syncs = m.counter("sim.cloud_syncs");
    metric_ids_.selected = m.counter("sim.selected_devices");
    metric_ids_.lost_downloads = m.counter("sim.lost_downloads");
    metric_ids_.blends = m.counter("sim.on_device_aggregations");
    metric_ids_.evaluations = m.counter("sim.evaluations");
    metric_ids_.step_ms = m.histogram(
        "sim.step_ms", {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                        5000, 10000});
    metric_ids_.fleet_materializations = m.counter("fleet.materializations");
    metric_ids_.fleet_resident = m.gauge("fleet.resident_devices");
    metric_ids_.fleet_detached = m.gauge("fleet.detached_devices");
    metric_ids_.comm_reduces = m.counter("comm.reduces");
    metric_ids_.comm_published = m.counter("comm.async_published");
    metric_ids_.comm_applied = m.counter("comm.async_applied");
    metric_ids_.comm_deferred = m.counter("comm.async_deferred");
    metric_ids_.comm_dropped_stale = m.counter("comm.async_dropped_stale");
  }
}

void Simulation::set_edge_model_sink(EdgeModelSink* sink) {
  serving_sink_ = sink;
  if (serving_sink_ == nullptr) return;
  // Initial publication: serving starts against whatever each edge holds
  // right now (the common init, or mid-run models when attached late).
  for (std::size_t n = 0; n < edges_.size(); ++n) {
    serving_sink_->on_edge_model(n, edges_[n].snapshot());
  }
}

bool Simulation::step() {
  const bool observed = obs_.enabled();
  obs::TraceRecorder::Clock::time_point step_begin{};
  if (observed) {
    step_begin = obs::TraceRecorder::Clock::now();
    prev_comm_counters_ = communicator_->counters();
    prev_async_stats_ = async_stats_;
    // Re-arm the resident high-water mark so the gauge is per-step. Pure
    // accounting — bare runs skip it and keep the whole-run peak.
    registry_.reset_resident_peak();
  }
  // Baselines of the record's per-step deltas. The link counters are exact
  // at this serial point, so the delta at the end of the step is exactly
  // the traffic every chain and the cloud stage generated.
  for (const transport::LinkKind kind : transport::kAllLinkKinds) {
    links_before_[slot(kind)] = transport_->stats(kind);
  }
  prev_materializations_ = registry_.materializations();
  // Fields filled in while the step runs: the timings (observed runs only)
  // and the cloud stage's contributing edges.
  last_step_.phase_us = {};
  last_step_.step_wall_us = 0.0;
  last_step_.resident_peak = 0;
  last_step_.contributing_edges = 0;
  ++t_;
  begin_step();

  // One fused chain per edge; the pool is joined exactly once. Chains have
  // no cross-edge dependencies within a step — the sync points are the
  // serial sections around this fan-out.
  parallel::parallel_for(pool_, 0, edges_.size(),
                         [this](std::size_t n) { edge_chain(n); });

  // The serial cloud stage: at round boundaries in sync mode, EVERY step in
  // async mode (contributions land whenever the WAN delivers them). `sync`
  // reports whether it completed a cloud round.
  bool sync = false;
  if (cfg_.comm.async_cloud || (t_ % cfg_.cloud_interval) == 0) {
    obs::TraceRecorder::Clock::time_point begin{};
    if (observed) begin = obs::TraceRecorder::Clock::now();
    sync = stage_cloud_apply();
    if (observed) {
      const auto end = obs::TraceRecorder::Clock::now();
      last_step_.phase_us.cloud_sync = elapsed_us(begin, end);
      if (sync && obs_.trace != nullptr) {
        obs_.trace->complete("cloud_sync", "phase", begin, end,
                             last_step_.contributing_edges, "contributing");
      }
    }
  }
  record_step(sync);
  if (observed) finish_step_obs(step_begin);
  return sync;
}

void Simulation::begin_step() {
  const bool observed = obs_.enabled();
  obs::StepPhaseUs& phase_us = last_step_.phase_us;

  // The membership rows start from the assignment before the first
  // advance (the only O(n) build); every step after that applies movers.
  obs::TraceRecorder::Clock::time_point t0{};
  if (membership_.num_edges() != edges_.size()) {
    if (observed) t0 = obs::TraceRecorder::Clock::now();
    membership_.rebuild(edges_.size(), mobility_->assignment());
    if (observed) {
      phase_us.membership = elapsed_us(t0, obs::TraceRecorder::Clock::now());
    }
  }

  if (observed) t0 = obs::TraceRecorder::Clock::now();
  mobility_->advance();
  if (observed) {
    const auto t1 = obs::TraceRecorder::Clock::now();
    phase_us.mobility = elapsed_us(t0, t1);
    if (obs_.trace != nullptr) {
      obs_.trace->complete("mobility", "phase", t0, t1, t_, "t");
    }
  }
  const auto& assignment = mobility_->assignment();

  // Snapshot the edge models of this step (w^t_n): an O(1) share of each
  // edge's current immutable block. Chains publish NEW blocks at
  // aggregation, so these stay stable for training initialization and
  // FedMes' prev-edge lookup even while other chains aggregate.
  if (edge_snapshot_.size() != edges_.size()) {
    edge_snapshot_.resize(edges_.size());
  }
  for (std::size_t n = 0; n < edges_.size(); ++n) {
    edge_snapshot_[n] = edges_[n].snapshot();
  }

  // Candidate sets M_t_n: each mover flips two membership bits, leaving
  // the edge the rows hold for it for its new one, and the rows remember
  // where it came from (previous_edge, read by Distribute). A model that
  // does not track its movers has them found by diffing the assignment
  // against the rows' edges, and the same apply runs. Neither path
  // dereferences a device (cold state), and both give the same rows
  // (pinned by MembershipIncremental and MembershipUntracked tests).
  if (observed) t0 = obs::TraceRecorder::Clock::now();
  if (const std::vector<std::size_t>* movers = mobility_->movers()) {
    membership_.apply(*movers, assignment);
  } else {
    membership_.apply(assignment);
  }
  // Ranks 0..count-1 for id-only selection, shared read-only by the chains.
  if (const std::size_t widest = membership_.max_count();
      ranks_.size() < widest) {
    const std::size_t old = ranks_.size();
    ranks_.resize(widest);
    std::iota(ranks_.begin() + static_cast<std::ptrdiff_t>(old), ranks_.end(),
              old);
  }
  if (observed) {
    const auto t1 = obs::TraceRecorder::Clock::now();
    phase_us.membership += elapsed_us(t0, t1);
    if (obs_.trace != nullptr) {
      obs_.trace->complete("membership", "phase", t0, t1, t_, "t");
    }
  }

  if (last_selection_.size() != edges_.size()) {
    last_selection_.resize(edges_.size());
  }
  if (candidates_.size() != edges_.size()) candidates_.resize(edges_.size());
  if (sits_out_.size() != edges_.size()) sits_out_.resize(edges_.size());
  if (traces_.size() != edges_.size()) traces_.resize(edges_.size());
  if (arrivals_.size() != edges_.size()) {
    arrivals_.resize(edges_.size());
    recon_arena_.resize(edges_.size());
    stale_uploads_.resize(edges_.size());
  }
}

std::vector<std::vector<std::size_t>> Simulation::edge_members() const {
  std::vector<std::vector<std::size_t>> lists(membership_.num_edges());
  for (std::size_t e = 0; e < lists.size(); ++e) {
    lists[e] = membership_.members(e);
  }
  return lists;
}

void Simulation::edge_chain(std::size_t n) {
  EdgeTrace& trace = traces_[n];
  trace.lost_downloads = 0;
  trace.blend_weights.clear();
  // At round boundaries the chain ends with its WAN publish; the serial
  // cloud stage only collects what arrived.
  const bool publish = (t_ % cfg_.cloud_interval) == 0;

  // Observed runs read the clock once at the start and once after each
  // phase, feeding both the phase span and the per-step phase sums; bare
  // runs read no clock. Timing never touches RNG or model state, so both
  // are bit-identical.
  const bool observed = obs_.enabled();
  obs::TraceRecorder::Clock::time_point begin{};
  if (observed) begin = obs::TraceRecorder::Clock::now();
  const auto phase_done = [&](std::size_t phase, const char* name) {
    if (!observed) return;
    const auto end = obs::TraceRecorder::Clock::now();
    trace.phase_us[phase] = elapsed_us(begin, end);
    if (obs_.trace != nullptr) {
      obs_.trace->complete(name, "phase", begin, end, n, "edge");
    }
    begin = end;
  };
  select_edge(n);
  phase_done(0, "select");
  distribute_edge(n, trace);
  phase_done(1, "distribute");
  train_edge(n);
  phase_done(2, "local_train");
  upload_edge(n);
  phase_done(3, "upload");
  aggregate_edge(n);
  if (publish) publish_edge(n);
  phase_done(4, "edge_aggregate");
}

void Simulation::select_edge(std::size_t n) {
  // In-edge device selection (Algorithm 1, line 2). The context lets
  // similarity strategies reuse cached Eq. 11 scores; it never changes the
  // selected set. Cache entries are per device and a device connects to
  // exactly one edge, so concurrent chains touch disjoint entries.
  const SelectionContext context{
      .cloud_version = cloud_.params_version(),
      .cache = &similarity_cache_,
  };
  last_selection_[n].clear();
  const std::size_t count = membership_.count(n);
  if (count == 0) return;
  auto rng = streams_.stream(kSelectTag, n, t_);
  if (!algorithm_.selection->needs_metadata()) {
    // Id-only fast path (random selection): the strategy chooses by
    // position, so it picks ascending ranks from 0..count-1 and one scan
    // of the edge's row maps them to ids — no member list, no Candidate
    // build, no per-member device dereference. Same draws, same ids, same
    // order as selecting from the ascending ids (pinned by membership_test).
    std::vector<std::size_t> picked = algorithm_.selection->select_ids(
        std::span<const std::size_t>(ranks_).first(count),
        cfg_.select_per_edge, rng);
    membership_.at_ranks(n, picked);
    last_selection_[n] = std::move(picked);
    return;
  }
  auto& candidates = candidates_[n];
  candidates.clear();
  candidates.reserve(count);
  // Random/stat-utility strategies never read candidate parameters, so
  // devices stay cold through selection; similarity strategies read each
  // candidate's parameters in place (no copy).
  const bool want_params = algorithm_.selection->needs_params();
  membership_.for_each(n, [&](std::size_t m) {
    const Device device = registry_.at(m);
    candidates.push_back(Candidate{
        .device_id = m,
        .data_size = static_cast<double>(device.data_size()),
        .stat_utility = device.stat_utility(),
        .local_params =
            want_params ? device.params() : std::span<const float>{},
        .params_version = device.params_version(),
    });
  });
  last_selection_[n] = algorithm_.selection->select(
      candidates, cloud_.params(), cfg_.select_per_edge, rng, context);
}

void Simulation::distribute_edge(std::size_t n, EdgeTrace& trace) {
  transport::Link& downlink = transport_->wireless_down();
  transport::Link& carry = transport_->carry();
  const Snapshot& edge_block = edge_snapshot_[n];
  const std::span<const float> edge_model = edge_block->span();

  const std::vector<std::size_t>& selection = last_selection_[n];
  std::vector<std::uint8_t>& sits_out = sits_out_[n];
  sits_out.assign(selection.size(), 0);
  for (std::size_t i = 0; i < selection.size(); ++i) {
    const std::size_t m = selection[i];
    Device device = registry_.at(m);
    const std::size_t came_from = membership_.previous_edge(m);
    const bool moved = came_from != n;

    parallel::Xoshiro256 rng = streams_.stream(kDownlinkTag, m, t_);
    std::vector<std::vector<float>> local_arena;  // downlink reconstructions
    const transport::SendContext ctx{
        .rng = &rng, .arena = &local_arena, .step = t_};

    // Every selected device downloads its edge's model; FedMes' moved
    // devices additionally fetch their previous edge's model.
    const transport::Delivery dl = downlink.send(edge_model, ctx);
    transport::Delivery prev_dl{};
    const bool wants_prev =
        moved && algorithm_.on_move == OnDeviceRule::kPrevEdgeAverage;
    if (wants_prev) {
      prev_dl = downlink.send(edge_snapshot_[came_from]->span(), ctx);
    }
    if (!dl.delivered) {
      // Download lost in transit: the device sits the round out.
      sits_out[i] = 1;
      ++trace.lost_downloads;
      continue;
    }

    if (moved && algorithm_.on_move != OnDeviceRule::kDownloadEdge) {
      // On-device model aggregation (line 5): blend the carried local model
      // with the downloaded edge model. The output borrows the worker's
      // workspace slot; set_params copies it out before the next borrow.
      std::span<const float> prev_edge{};
      if (wants_prev) {
        if (!prev_dl.delivered) {
          // The extra FedMes download was lost: fall back to the plain
          // edge download (the rule has nothing to average with).
          install_download(device, dl.payload, edge_block);
          continue;
        }
        prev_edge = prev_dl.payload;
      }
      std::span<const float> local = device.params();
      if (algorithm_.on_move != OnDeviceRule::kPrevEdgeAverage) {
        // The carried local model enters the blend: route it through the
        // carry link (free — zero bytes — but counted).
        local = carry.send(local, {.step = t_}).payload;
      }
      std::span<float> blended = tensor::Workspace::tls().floats(
          tensor::WsSlot::kBlend, edge_model.size());
      const double weight =
          apply_on_device_rule(algorithm_.on_move, dl.payload, local,
                               prev_edge, algorithm_.fixed_alpha, blended);
      device.set_params(blended);
      trace.blend_weights.push_back(weight);
    } else {
      // Line 7: start from the downloaded edge model — a shared adopt of
      // the snapshot when the link passed it through losslessly.
      install_download(device, dl.payload, edge_block);
    }
  }
}

void Simulation::install_download(Device device,
                                  std::span<const float> payload,
                                  const Snapshot& source) {
  if (!payload.empty() && payload.data() == source->span().data()) {
    device.adopt(source);
  } else {
    device.set_params(payload);
  }
}

void Simulation::train_edge(std::size_t n) {
  // One pooled runtime serves every device in this chain serially.
  // Acquired on first need so empty selections stay allocation-free.
  DeviceRuntime* runtime = nullptr;
  const std::vector<std::size_t>& selection = last_selection_[n];
  for (std::size_t i = 0; i < selection.size(); ++i) {
    if (sits_out_[n][i]) continue;
    const std::size_t m = selection[i];
    if (runtime == nullptr) runtime = registry_.acquire_runtime();
    auto rng = streams_.stream(kTrainTag, m, t_);
    registry_.at(m).train(cfg_.local_steps, cfg_.batch_size,
                          cfg_.lr_schedule(t_), rng, runtime);
  }
  if (runtime != nullptr) registry_.release_runtime(runtime);
}

void Simulation::upload_edge(std::size_t n) {
  transport::Link& uplink = transport_->wireless_up();
  const bool delayed = uplink.policy().latency_steps > 0;

  arrivals_[n].clear();
  recon_arena_[n].clear();
  stale_uploads_[n].clear();
  if (delayed) {
    // Uploads sent latency_steps ago arrive now and join this edge's
    // aggregation, oldest first.
    stale_uploads_[n] = uplink.drain(t_, n);
    for (const transport::Arrival& a : stale_uploads_[n]) {
      arrivals_[n].push_back(UploadArrival{a.payload, a.weight});
    }
  }
  const std::vector<std::size_t>& selection = last_selection_[n];
  for (std::size_t i = 0; i < selection.size(); ++i) {
    if (sits_out_[n][i]) continue;
    const std::size_t m = selection[i];
    const Device device = registry_.at(m);
    const auto weight = static_cast<double>(device.data_size());
    parallel::Xoshiro256 rng = streams_.stream(kUploadTag, m, t_);
    // A compressing uplink hands the edge a lossy reconstruction of the
    // device's update against this step's edge model.
    const transport::SendContext ctx{.rng = &rng,
                                     .reference = edge_snapshot_[n]->span(),
                                     .arena = &recon_arena_[n],
                                     .step = t_,
                                     .shard = n,
                                     .weight = weight};
    const transport::Delivery up = uplink.send(device.params(), ctx);
    if (up.delivered) {
      arrivals_[n].push_back(UploadArrival{up.payload, weight});
    }
    // Lost uploads vanish (the device keeps its local update); queued
    // uploads surface through drain() in a later step.
  }
}

void Simulation::aggregate_edge(std::size_t n) {
  if (arrivals_[n].empty()) return;  // idle edge (or every upload lost /
                                     // still in flight) keeps its model
  std::vector<comm::Contribution> models;
  models.reserve(arrivals_[n].size());
  double participating = 0.0;
  for (const UploadArrival& arrival : arrivals_[n]) {
    models.push_back(comm::Contribution{arrival.payload, arrival.weight});
    participating += arrival.weight;
  }
  // Aggregate into a fresh block, never over the live one: the previous
  // block may be shared (it IS this step's snapshot, and possibly the
  // cloud broadcast), so in-place writes would corrupt concurrent readers.
  std::vector<float> fresh = SnapshotStore::global().borrow(param_count_);
  // Inside a worker the block fan-out runs inline: the serial fixed-order
  // loop, with the same bits.
  communicator_->all_reduce(models, std::span<float>(fresh));
  edges_[n].adopt(SnapshotStore::global().seal(std::move(fresh)));
  edges_[n].add_participation(participating);
  // Serving hot-swap: hand the fresh aggregate to the sink from inside
  // this edge's own chain (single writer per edge slot). A refcount bump
  // of the immutable block — no RNG, no mutation, no effect on goldens.
  if (serving_sink_ != nullptr) {
    serving_sink_->on_edge_model(n, edges_[n].snapshot());
  }
}

void Simulation::record_step(bool sync) {
  obs::StepRecord& r = last_step_;
  r.step = t_;
  r.synced = sync;
  r.movers = membership_.movers().size();
  r.measured_p =
      static_cast<double>(r.movers) / static_cast<double>(registry_.size());
  r.selected = 0;
  for (const auto& selection : last_selection_) r.selected += selection.size();

  // Merge the per-chain traces in canonical edge order. The counters
  // commute; the blend-weight sums are floating point and are added term
  // by term in (edge, selection) order, keeping mean_blend_weight()
  // bitwise stable at any thread count.
  r.lost_downloads = 0;
  r.blends = 0;
  r.blend_weight_sum = 0.0;
  for (const EdgeTrace& trace : traces_) {
    r.lost_downloads += trace.lost_downloads;
    r.blends += trace.blend_weights.size();
    for (const double weight : trace.blend_weights) {
      blend_weight_sum_ += weight;
      r.blend_weight_sum += weight;
    }
  }
  blends_ += r.blends;

  r.materializations = registry_.materializations() - prev_materializations_;
  for (const transport::LinkKind kind : transport::kAllLinkKinds) {
    const transport::LinkStats delta =
        transport_->stats(kind) - links_before_[slot(kind)];
    obs::LinkDeltaRecord& link = r.links[slot(kind)];
    link.transfers = delta.transfers;
    link.dropped = delta.dropped;
    link.bytes = delta.bytes;
    link.in_flight = transport_->link(kind).in_flight();
  }

  if (!obs_.enabled()) return;
  for (const EdgeTrace& trace : traces_) {
    r.phase_us.select += trace.phase_us[0];
    r.phase_us.distribute += trace.phase_us[1];
    r.phase_us.local_train += trace.phase_us[2];
    r.phase_us.upload += trace.phase_us[3];
    r.phase_us.edge_aggregate += trace.phase_us[4];
  }
  // Instant markers fire here, at the serial point in canonical edge
  // order — never from inside the parallel chains — so the trace event
  // stream is deterministic at any thread count.
  if (obs_.trace != nullptr) {
    if (r.lost_downloads > 0) {
      obs_.trace->instant("dropouts", "sim", r.lost_downloads, "count");
    }
    if (r.blends > 0) obs_.trace->instant("blends", "sim", r.blends, "count");
  }
}

void Simulation::broadcast_devices() {
  transport::Link& link = transport_->broadcast();
  const Snapshot& global_block = cloud_.snapshot();
  const bool lossy = link.policy().loss_prob > 0.0;
  const bool compressed =
      link.policy().compression.kind != transport::CompressionKind::kNone;
  if (!lossy && !compressed) {
    // Every push would deliver the cloud's own block: charge the n sends
    // at once and swap the block every following device reads. Only the
    // devices written since the last broadcast are touched.
    link.send_identical(global_block->span(), registry_.size());
    registry_.broadcast(global_block);
    return;
  }
  // Per-device loss draws and reconstructions need the per-device loop.
  // Each follower is pinned on its block before its push, so after the
  // loop every device holds its own model and a lost push keeps the old.
  for (std::size_t m = 0; m < registry_.size(); ++m) {
    Device device = registry_.at(m);
    device.detach();
    parallel::Xoshiro256 rng = streams_.stream(kBroadcastTag, m, t_);
    // The reconstruction lives only until install_download copies it.
    std::vector<std::vector<float>> local_arena;
    const transport::Delivery push = link.send(
        global_block->span(),
        {.rng = &rng, .arena = &local_arena, .step = t_});
    if (push.delivered) install_download(device, push.payload, global_block);
  }
}

void Simulation::publish_edge(std::size_t n) {
  transport::Link& wan_up = transport_->wan_up();
  const double weight = cfg_.weighted_cloud_aggregation
                            ? edges_[n].participation_weight()
                            : 1.0;
  parallel::Xoshiro256 rng = streams_.stream(kWanUpTag, n, t_);
  transport::SendContext ctx{
      .rng = &rng,
      .arena = &recon_arena_[n],
      .step = t_,
      .shard = n,  // one WAN shard per edge: lock-free from inside the chain
      .weight = weight};
  // Sync mode delta-codes against the global model both endpoints hold
  // from the last broadcast (cloud_ is written only at serial points, so
  // reading it here is race-free). Async mode cannot know which global
  // model the cloud will hold when this lands, so it codes the raw model.
  if (!cfg_.comm.async_cloud) ctx.reference = cloud_.params();
  const transport::Delivery up = wan_up.send(edges_[n].params(), ctx);

  CloudContribution c;
  c.weight = weight;
  c.sent_step = t_;
  if (up.queued) {
    c.queued = true;  // surfaces through the delay queue later
  } else if (!up.delivered) {
    c.dropped = true;  // lost in transit; the weight vanishes with it
  } else if (!up.payload.empty() &&
             up.payload.data() == edges_[n].params().data()) {
    c.shared = edges_[n].snapshot();  // lossless pass-through: zero copy
  } else {
    c.owned.assign(up.payload.begin(), up.payload.end());
  }
  cloud_mailbox_.post(n, std::move(c));
  // Participation resets at publish: the next window accumulates toward
  // the next contribution.
  edges_[n].reset_participation();
}

bool Simulation::stage_cloud_apply() {
  const bool async = cfg_.comm.async_cloud;
  transport::Link& wan_up = transport_->wan_up();
  transport::Link& wan_down = transport_->wan_down();

  const std::uint64_t round_now = t_ / cfg_.cloud_interval;
  const bool delayed = wan_up.policy().latency_steps > 0;

  // The apply batch in canonical edge order. The payload storage (drained
  // arrivals, mailbox posts) outlives the reduce below.
  struct PendingApply {
    std::size_t edge;
    std::span<const float> payload;
    double eff;           // weight entering the reduce
    double raw;           // undiscounted weight (async anchor bookkeeping)
    std::uint64_t round;  // cloud round the contribution was sent in
  };
  std::vector<PendingApply> batch;
  std::vector<CloudContribution> delivered;
  std::vector<transport::Arrival> drained;

  // Admission, the one rule the two modes differ on. Sync (Eq. 7) takes
  // every arrival with a positive weight at full weight. Async admits a
  // contribution while it is at most max_staleness rounds old, discounted
  // by 1/(1 + staleness).
  const auto admit = [&](std::size_t n, std::span<const float> payload,
                         double weight, std::size_t sent_step) {
    if (!async) {
      if (weight > 0.0) {
        batch.push_back(PendingApply{n, payload, weight, weight, round_now});
      }
      return;
    }
    const std::uint64_t staleness = round_now - sent_step / cfg_.cloud_interval;
    if (staleness > cfg_.comm.max_staleness) {
      // Past the bound: the model is discarded but its weight is folded
      // into this edge's next accepted contribution.
      ++async_stats_.dropped_stale;
      fold_credit_[n] += weight;
      return;
    }
    const double raw = weight + fold_credit_[n];
    fold_credit_[n] = 0.0;
    if (raw <= 0.0) return;  // idle window: nothing to contribute
    const double eff = raw / (1.0 + static_cast<double>(staleness));
    batch.push_back(
        PendingApply{n, payload, eff, raw, round_now - staleness});
    ++async_stats_.applied;
  };

  // Gather: each edge's due delay-queue arrivals (oldest first), then its
  // mailbox post. With a fixed WAN latency every contribution takes the
  // same one of the two routes.
  for (std::size_t n = 0; n < edges_.size(); ++n) {
    if (delayed) {
      for (transport::Arrival& a : wan_up.drain(t_, n)) {
        const transport::Arrival& kept = drained.emplace_back(std::move(a));
        admit(n, kept.payload, kept.weight, kept.sent_step);
      }
    }
    if (auto posted = cloud_mailbox_.take(n)) {
      if (async) {
        ++async_stats_.published;
        // Queued posts surface through drain() later.
        if (posted->queued) ++async_stats_.deferred;
      }
      if (!posted->queued && !posted->dropped) {
        const CloudContribution& c =
            delivered.emplace_back(std::move(*posted));
        admit(n, c.view(), c.weight, c.sent_step);
      }
    }
  }

  const bool applied = !batch.empty();
  if (applied) {
    std::vector<comm::Contribution> models;
    models.reserve(batch.size() + 1);
    if (async) {
      // Anchor: edges absent from this batch whose last applied
      // contribution is still within the staleness bound keep the current
      // global model weighted in, so one straggler batch cannot wipe the
      // mass already folded in. With max_staleness == 0 the anchor is
      // always empty and each apply is a plain FedAvg over the batch.
      double anchor = 0.0;
      for (std::size_t n = 0; n < edges_.size(); ++n) {
        if (!anchor_valid_[n] ||
            std::any_of(batch.begin(), batch.end(),
                        [n](const PendingApply& p) { return p.edge == n; })) {
          continue;
        }
        const std::uint64_t age = round_now - anchor_round_[n];
        if (age > cfg_.comm.max_staleness) continue;
        anchor += anchor_weight_[n] / (1.0 + static_cast<double>(age));
      }
      if (anchor > 0.0) {
        models.push_back(comm::Contribution{cloud_.params(), anchor});
      }
    }
    for (const PendingApply& p : batch) {
      models.push_back(comm::Contribution{p.payload, p.eff});
    }
    // The aggregate lands in a fresh block: contributions may alias the
    // edges' live blocks, and the old global block may still be shared
    // with edges and devices from the previous broadcast.
    std::vector<float> fresh = SnapshotStore::global().borrow(param_count_);
    communicator_->all_reduce(models, fresh);
    // One publish replaces the old global model; the fresh version
    // invalidates cached Eq. 11 scores by construction.
    cloud_.adopt(SnapshotStore::global().seal(std::move(fresh)));
    if (async) {
      for (const PendingApply& p : batch) {
        anchor_weight_[p.edge] = p.raw;
        anchor_round_[p.edge] = p.round;
        anchor_valid_[p.edge] = 1;
      }
      ++async_stats_.applies;
    }
  }
  last_step_.contributing_edges = batch.size();

  // Cadence: sync mode completes a round at every boundary, pushing the
  // global model down even when no edge contributed; async pushes only
  // what it applied.
  const bool boundary = (t_ % cfg_.cloud_interval) == 0;
  const bool completed = async ? applied : boundary;
  if (completed) {
    // Cloud -> edge over the WAN. A lost push leaves the edge on its old
    // model; a lossless one is a shared adopt of the cloud's block.
    wan_arena_.clear();
    const Snapshot& global_block = cloud_.snapshot();
    for (std::size_t n = 0; n < edges_.size(); ++n) {
      parallel::Xoshiro256 rng = streams_.stream(kWanDownTag, n, t_);
      const transport::Delivery down = wan_down.send(
          cloud_.params(), {.rng = &rng, .arena = &wan_arena_, .step = t_});
      if (down.delivered) {
        if (down.payload.data() == global_block->span().data()) {
          edges_[n].adopt(global_block);
        } else {
          edges_[n].set_params(down.payload);
        }
      }
      // Serving hot-swap: a lossless push republishes the shared global
      // block; a lost push republishes the edge's unchanged model (same
      // version — readers treat it as a no-op).
      if (serving_sink_ != nullptr) {
        serving_sink_->on_edge_model(n, edges_[n].snapshot());
      }
    }
    // The device broadcast fires only at round boundaries (Algorithm 1's
    // cadence). Off-boundary async applies reach devices lazily through
    // the next edge downloads instead of paying the M-device broadcast.
    if (cfg_.broadcast_to_devices && boundary) broadcast_devices();
  }
  return completed;
}

void Simulation::finish_step_obs(obs::TraceRecorder::Clock::time_point begin) {
  const auto end = obs::TraceRecorder::Clock::now();
  obs::StepRecord& r = last_step_;
  r.step_wall_us = elapsed_us(begin, end);
  r.resident_peak = registry_.resident_peak();

  if (obs_.trace != nullptr) {
    obs_.trace->complete("step", "sim", begin, end, t_, "t");
  }
  if (obs_.metrics != nullptr) {
    obs::MetricsRegistry& m = *obs_.metrics;
    m.add(metric_ids_.steps);
    if (r.movers > 0) m.add(metric_ids_.movers, static_cast<double>(r.movers));
    m.add(metric_ids_.selected, static_cast<double>(r.selected));
    if (r.lost_downloads > 0) {
      m.add(metric_ids_.lost_downloads, static_cast<double>(r.lost_downloads));
    }
    if (r.blends > 0) m.add(metric_ids_.blends, static_cast<double>(r.blends));
    if (r.synced) m.add(metric_ids_.cloud_syncs);
    if (r.materializations > 0) {
      m.add(metric_ids_.fleet_materializations,
            static_cast<double>(r.materializations));
    }
    m.set(metric_ids_.fleet_resident, static_cast<double>(r.resident_peak));
    m.set(metric_ids_.fleet_detached,
          static_cast<double>(registry_.detached_devices()));
    const comm::CommCounters cc = communicator_->counters();
    if (cc.reduces > prev_comm_counters_.reduces) {
      m.add(metric_ids_.comm_reduces,
            static_cast<double>(cc.reduces - prev_comm_counters_.reduces));
    }
    if (async_stats_.published > prev_async_stats_.published) {
      m.add(metric_ids_.comm_published,
            static_cast<double>(async_stats_.published -
                                prev_async_stats_.published));
    }
    if (async_stats_.applied > prev_async_stats_.applied) {
      m.add(metric_ids_.comm_applied,
            static_cast<double>(async_stats_.applied -
                                prev_async_stats_.applied));
    }
    if (async_stats_.deferred > prev_async_stats_.deferred) {
      m.add(metric_ids_.comm_deferred,
            static_cast<double>(async_stats_.deferred -
                                prev_async_stats_.deferred));
    }
    if (async_stats_.dropped_stale > prev_async_stats_.dropped_stale) {
      m.add(metric_ids_.comm_dropped_stale,
            static_cast<double>(async_stats_.dropped_stale -
                                prev_async_stats_.dropped_stale));
    }
    m.observe(metric_ids_.step_ms, r.step_wall_us / 1000.0);
  }
  if (obs_.logger != nullptr) obs_.logger->log_step(r);
}

void Simulation::warm_start(std::span<const float> params) {
  if (params.size() != param_count_) {
    throw std::invalid_argument("Simulation::warm_start: size mismatch");
  }
  // One published block shared by every tier, exactly like a lossless
  // broadcast — but out of band: no link is charged.
  const Snapshot snapshot = SnapshotStore::global().publish(params);
  cloud_.adopt(snapshot);
  for (auto& edge : edges_) edge.adopt(snapshot);
  registry_.broadcast(snapshot);
  if (serving_sink_ != nullptr) {
    for (std::size_t n = 0; n < edges_.size(); ++n) {
      serving_sink_->on_edge_model(n, edges_[n].snapshot());
    }
  }
}

double Simulation::current_edge_skew() const {
  const std::size_t classes =
      registry_.data_view(0).base().num_classes();
  std::vector<std::vector<std::size_t>> histograms(
      edges_.size(), std::vector<std::size_t>(classes, 0));
  const auto& assignment = mobility_->assignment();
  for (std::size_t m = 0; m < registry_.size(); ++m) {
    const auto device_hist = registry_.data_view(m).class_histogram();
    auto& edge_hist = histograms[assignment[m]];
    for (std::size_t c = 0; c < classes; ++c) {
      edge_hist[c] += device_hist[c];
    }
  }
  return mean_edge_skew(histograms);
}

const EvalPoint& Simulation::evaluate_now() {
  const bool observed = obs_.enabled();
  obs::TraceRecorder::Clock::time_point eval_begin{};
  if (observed) eval_begin = obs::TraceRecorder::Clock::now();
  EvalPoint point;
  point.step = t_;
  const EvalResult result =
      evaluator_->evaluate(cloud_.params(), cfg_.eval_samples);
  point.accuracy = result.accuracy;
  point.loss = result.loss;
  if (cfg_.track_edge_accuracy && cfg_.eval_edges) {
    point.edge_accuracy.reserve(edges_.size());
    for (const auto& edge : edges_) {
      point.edge_accuracy.push_back(
          evaluator_->evaluate(edge.params(), cfg_.eval_samples).accuracy);
    }
  }
  history_.points.push_back(std::move(point));
  const EvalPoint& recorded = history_.points.back();
  if (observed) {
    const auto eval_end = obs::TraceRecorder::Clock::now();
    const double wall_us = elapsed_us(eval_begin, eval_end);
    if (obs_.trace != nullptr) {
      obs_.trace->complete("evaluate", "eval", eval_begin, eval_end, t_, "t");
    }
    if (obs_.metrics != nullptr) obs_.metrics->add(metric_ids_.evaluations);
    if (obs_.logger != nullptr) {
      obs_.logger->log_eval(obs::EvalRecord{recorded.step, recorded.accuracy,
                                            recorded.loss, wall_us});
    }
  }
  return recorded;
}

RunHistory Simulation::run(
    const std::function<void(const EvalPoint&)>& progress) {
  if (t_ == 0) {
    // Record the starting point so curves begin at the common init.
    const auto& point = evaluate_now();
    if (progress) progress(point);
  }
  while (t_ < cfg_.total_steps) {
    step();
    if (t_ % cfg_.eval_every == 0 || t_ == cfg_.total_steps) {
      const auto& point = evaluate_now();
      if (progress) progress(point);
    }
  }
  return history_;
}

}  // namespace middlefl::core
