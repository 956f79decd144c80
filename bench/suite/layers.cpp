#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "comm/communicator.hpp"
#include "nn/model_factory.hpp"
#include "tensor/blas.hpp"
#include "transport/compression.hpp"

namespace middlefl::bench::suite {

std::uint64_t params_hash(std::span<const float> params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const float v : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::pair<bool, double> StepLog::timed_step(core::Simulation& sim) {
  const auto begin = Clock::now();
  const bool synced = sim.step();
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - begin).count();
  busy_s_ += us * 1e-6;
  (synced ? sync_ms_ : plain_ms_).push_back(us * 1e-3);
  return {synced, us};
}

bool StepLog::step(core::Simulation& sim) { return timed_step(sim).first; }

TracedPass::TracedPass(parallel::ThreadPool& pool) : pool_(pool) {
  probes_.trace = &trace_;
}

TracedPass::~TracedPass() {
  pool_.set_trace(nullptr);
  pool_.set_accounting(false);
}

TracedPass::Counters TracedPass::snapshot(const core::Simulation& sim) const {
  Counters c;
  c.links = sim.transport().bytes_by_link();
  c.materializations = sim.fleet().materializations();
  c.cache_hits = sim.similarity_cache().hits();
  c.cache_misses = sim.similarity_cache().misses();
  c.workers = pool_.worker_stats();
  c.uptime_us = pool_.uptime_us();
  c.async = sim.async_stats();
  return c;
}

void TracedPass::begin(core::Simulation& sim) {
  obs::Observability bundle;
  bundle.trace = &trace_;
  bundle.metrics = &metrics_;
  sim.set_observability(bundle);
  pool_.set_trace(&trace_);
  pool_.set_accounting(true);
  first_ = snapshot(sim);
}

bool TracedPass::step(core::Simulation& sim) {
  const auto [synced, wall_us] = timed_step(sim);
  const core::Simulation::StepPhaseUs& p = sim.last_step_phase_us();
  phase_sum_.mobility += p.mobility;
  phase_sum_.membership += p.membership;
  phase_sum_.select += p.select;
  phase_sum_.distribute += p.distribute;
  phase_sum_.local_train += p.local_train;
  phase_sum_.upload += p.upload;
  phase_sum_.edge_aggregate += p.edge_aggregate;
  phase_sum_.cloud_sync += p.cloud_sync;
  // Chain phases are summed over edges that ran concurrently on the pool,
  // so they count toward wall time divided by the worker count.
  const double chains = p.select + p.distribute + p.local_train + p.upload +
                        p.edge_aggregate;
  const double workers = static_cast<double>(std::max<std::size_t>(
      1, std::min(pool_.size(), sim.num_edges())));
  if (wall_us > 0.0) {
    coverage_.push_back(
        (p.mobility + p.membership + chains / workers + p.cloud_sync) /
        wall_us);
  }
  resident_peak_ = std::max(resident_peak_, sim.fleet().resident_peak());
  return synced;
}

void TracedPass::end(core::Simulation& sim) {
  last_ = snapshot(sim);
  pool_.set_trace(nullptr);
  pool_.set_accounting(false);
  sim.set_observability(obs::Observability{});
}

void TracedPass::emit(Report& r, double untraced_step_ms) const {
  const double steps =
      static_cast<double>(std::max<std::size_t>(1, this->steps()));
  const auto per_step_ms = [steps](double us) { return us / steps * 1e-3; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  r.set("mobility.advance_ms", "ms", probes_.mobility.mean_us() * 1e-3);
  r.set("mobility.movers_per_step", "count",
        ratio(static_cast<double>(probes_.mobility.items),
              static_cast<double>(probes_.mobility.calls)));
  r.set("core.membership_ms", "ms", per_step_ms(phase_sum_.membership));
  r.set("core.select_ms", "ms", per_step_ms(phase_sum_.select));
  r.set("core.strategy_us", "us", probes_.select.mean_us());
  r.set("core.distribute_ms", "ms", per_step_ms(phase_sum_.distribute));
  r.set("core.local_train_ms", "ms", per_step_ms(phase_sum_.local_train));
  r.set("core.upload_ms", "ms", per_step_ms(phase_sum_.upload));
  r.set("core.edge_aggregate_ms", "ms", per_step_ms(phase_sum_.edge_aggregate));
  r.set("core.cloud_sync_ms", "ms", per_step_ms(phase_sum_.cloud_sync));
  r.set("core.materializations_per_step", "count",
        static_cast<double>(last_.materializations - first_.materializations) /
            steps);
  r.set("core.resident_peak", "count", static_cast<double>(resident_peak_));
  const double hits =
      static_cast<double>(last_.cache_hits - first_.cache_hits);
  const double misses =
      static_cast<double>(last_.cache_misses - first_.cache_misses);
  r.set("core.simcache_hit_ratio", "ratio", ratio(hits, hits + misses));

  r.set("optim.step_us", "us", probes_.optim.mean_us());
  r.set("optim.calls_per_step", "count",
        static_cast<double>(probes_.optim.calls) / steps);
  r.set("serve.publish_us", "us", probes_.publish.mean_us());

  for (std::size_t i = 0; i < last_.links.size(); ++i) {
    const auto& link = last_.links[i];
    const std::size_t before =
        i < first_.links.size() ? first_.links[i].stats.bytes : 0;
    r.set("transport." + transport::to_string(link.kind) + ".bytes_per_step",
          "B", static_cast<double>(link.stats.bytes - before) / steps);
  }

  double busy_us = 0.0;
  double tasks = 0.0;
  for (std::size_t w = 0; w < last_.workers.size(); ++w) {
    const auto& before = w < first_.workers.size()
                             ? first_.workers[w]
                             : parallel::ThreadPool::WorkerStats{};
    busy_us += last_.workers[w].busy_us - before.busy_us;
    tasks += static_cast<double>(last_.workers[w].tasks - before.tasks);
  }
  r.set("parallel.pool_busy_share", "ratio",
        ratio(busy_us, (last_.uptime_us - first_.uptime_us) *
                           static_cast<double>(pool_.size())));
  r.set("parallel.tasks_per_step", "count", tasks / steps);

  r.set("comm.async_applied_ratio", "ratio",
        ratio(static_cast<double>(last_.async.applied - first_.async.applied),
              static_cast<double>(last_.async.published -
                                  first_.async.published)));

  const double coverage = summarize(coverage_).median;
  r.set("obs.coverage", "ratio", coverage_);
  r.check(coverage >= kCoverageLow && coverage <= kCoverageHigh,
          "obs.coverage within its recorded band");
  r.set("obs.trace_overhead", "ratio",
        ratio(busy_s() * 1e3 / steps, untraced_step_ms));
}

void TracedPass::write_trace(const std::string& path) const {
  trace_.write_chrome_trace_file(path);
}

namespace {

/// Median wall microseconds of `fn` over at least `min_reps` calls and at
/// least `budget_s` seconds (capped at 10000 calls). `prepare` runs untimed
/// before each call.
double median_call_us(const std::function<void()>& fn,
                      const std::function<void()>& prepare,
                      std::size_t min_reps, double budget_s) {
  std::vector<double> us;
  const auto begin = Clock::now();
  while (us.size() < 10000 &&
         (us.size() < min_reps || seconds_since(begin) < budget_s)) {
    if (prepare) prepare();
    const auto t0 = Clock::now();
    fn();
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return summarize(us).median;
}

double median_call_us(const std::function<void()>& fn, std::size_t min_reps,
                      double budget_s) {
  return median_call_us(fn, nullptr, min_reps, budget_s);
}

}  // namespace

void time_compute_layers(const nn::ModelSpec& spec, std::size_t batch,
                         std::size_t contributions,
                         parallel::ThreadPool* pool, std::uint64_t seed,
                         obs::TraceRecorder* trace, Report& r) {
  constexpr double kBudget = 0.15;
  parallel::Xoshiro256 rng(seed);
  auto model = nn::build_model(spec, seed);
  std::vector<std::size_t> dims{batch};
  for (const std::size_t d : spec.input_shape.dims()) dims.push_back(d);
  const tensor::Tensor input =
      tensor::Tensor::randn(tensor::Shape(dims), rng, 1.0f);
  const tensor::Tensor& probe_out = model->forward(input, true);
  const tensor::Tensor grad = tensor::Tensor::full(
      probe_out.shape(), 1.0f / static_cast<float>(probe_out.numel()));

  {
    obs::TraceSpan span(trace, "nn.forward", "bench");
    r.set("nn.forward_us", "us",
          median_call_us([&] { model->forward(input, true); }, 20, kBudget));
  }
  {
    obs::TraceSpan span(trace, "nn.backward", "bench");
    r.set("nn.backward_us", "us",
          median_call_us([&] { model->backward(grad); },
                         [&] {
                           model->forward(input, true);
                           model->zero_grad();
                         },
                         20, kBudget));
  }

  // First Linear layer of the model: batch x in -> hidden.
  const std::size_t in = spec.input_shape.numel();
  const std::size_t hidden = std::max<std::size_t>(1, spec.hidden);
  std::vector<float> x(batch * in), w(hidden * in), y(batch * hidden),
      dy(batch * hidden), dw(hidden * in);
  for (auto* v : {&x, &w, &dy}) {
    for (float& f : *v) f = static_cast<float>(rng.uniform()) - 0.5f;
  }
  const double flops = 2.0 * static_cast<double>(batch) *
                       static_cast<double>(in) * static_cast<double>(hidden);
  {
    obs::TraceSpan span(trace, "tensor.gemm_fwd", "bench");
    const double us = median_call_us(
        [&] {
          tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, batch, hidden,
                       in, 1.0f, x, w, 0.0f, y);
        },
        50, kBudget);
    r.set("tensor.gemm_fwd_gflops", "GFLOP/s", flops / (us * 1e3));
  }
  {
    obs::TraceSpan span(trace, "tensor.gemm_bwd", "bench");
    const double us = median_call_us(
        [&] {
          tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, hidden, in,
                       batch, 1.0f, dy, x, 0.0f, dw);
        },
        50, kBudget);
    r.set("tensor.gemm_bwd_gflops", "GFLOP/s", flops / (us * 1e3));
  }

  const std::size_t params = model->param_count();
  std::vector<std::vector<float>> models(
      std::max<std::size_t>(1, contributions), std::vector<float>(params));
  std::vector<comm::Contribution> contribs;
  for (std::size_t k = 0; k < models.size(); ++k) {
    for (float& f : models[k]) f = static_cast<float>(rng.uniform());
    contribs.push_back(
        comm::Contribution{models[k], 1.0 + static_cast<double>(k)});
  }
  std::vector<float> reduced(params);
  comm::InProcessCommunicator communicator(pool);
  {
    obs::TraceSpan span(trace, "comm.all_reduce", "bench");
    r.set("comm.reduce_us", "us",
          median_call_us([&] { communicator.all_reduce(contribs, reduced); },
                         20, kBudget));
  }

  transport::EncodedDelta encoded;
  const transport::CompressionConfig q8{transport::CompressionKind::kQuant8,
                                        0.1};
  {
    obs::TraceSpan span(trace, "transport.encode_delta", "bench");
    r.set("transport.codec_us", "us",
          median_call_us(
              [&] { transport::encode_delta(models[0], q8, encoded); }, 20,
              kBudget));
  }
}

}  // namespace middlefl::bench::suite
