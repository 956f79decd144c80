#include "comm/communicator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace_recorder.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/workspace.hpp"

namespace middlefl::comm {
namespace {

/// Validates `contribs` against `out_size` and writes the normalized
/// weights (w_k / sum w) into `norm`.
void normalize_weights(std::span<const Contribution> contribs,
                       std::size_t out_size, std::span<double> norm) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("comm::all_reduce: ") + what);
  };
  if (contribs.empty()) fail("no models");
  double total = 0.0;
  for (const Contribution& c : contribs) {
    if (c.params.size() != out_size) fail("parameter size mismatch");
    if (c.weight < 0.0) fail("negative weight");
    total += c.weight;
  }
  if (total <= 0.0) fail("all weights zero");
  for (std::size_t k = 0; k < contribs.size(); ++k) {
    norm[k] = contribs[k].weight / total;
  }
}

/// Averages elements [lo, hi) into `out` with `acc` as their double
/// accumulator, in canonical contribution order (k = 0 .. P-1).
void accumulate_range(std::span<const Contribution> contribs,
                      std::span<const double> norm, std::span<float> out,
                      std::span<double> acc, std::size_t lo, std::size_t hi) {
  std::fill(acc.begin() + lo, acc.begin() + hi, 0.0);
  for (std::size_t k = 0; k < contribs.size(); ++k) {
    const double w = norm[k];
    if (w == 0.0) continue;
    const std::span<const float> params = contribs[k].params;
    for (std::size_t i = lo; i < hi; ++i) {
      acc[i] += w * static_cast<double>(params[i]);
    }
  }
  for (std::size_t i = lo; i < hi; ++i) {
    out[i] = static_cast<float>(acc[i]);
  }
}

}  // namespace

void InProcessCommunicator::all_reduce(std::span<const Contribution> contribs,
                                       std::span<float> out) {
  // Trace only at serial points: in-chain (pool-worker) reduces must not
  // read clocks so bare and observed runs stay bit-identical per chain.
  const bool traced =
      trace_ != nullptr && !parallel::ThreadPool::in_worker();
  obs::TraceRecorder::Clock::time_point begin{};
  if (traced) begin = obs::TraceRecorder::Clock::now();

  // Normalized weights ride in the tail of the accumulator slot so the
  // whole call stays allocation-free after warm-up.
  const std::size_t n = out.size();
  std::span<double> scratch = tensor::Workspace::tls().doubles(
      tensor::WsDoubleSlot::kAccumulate, n + contribs.size());
  const std::span<double> acc = scratch.first(n);
  const std::span<double> norm = scratch.last(contribs.size());
  normalize_weights(contribs, n, norm);
  if (n <= kReduceBlock) {
    accumulate_range(contribs, norm, out, acc, 0, n);
  } else {
    parallel::parallel_for(pool_, 0, (n + kReduceBlock - 1) / kReduceBlock,
                           [&](std::size_t b) {
                             const std::size_t lo = b * kReduceBlock;
                             accumulate_range(contribs, norm, out, acc, lo,
                                              std::min(n, lo + kReduceBlock));
                           });
  }

  reduces_.fetch_add(1, std::memory_order_relaxed);
  if (traced) {
    trace_->complete("comm.reduce", "comm", begin,
                     obs::TraceRecorder::Clock::now());
  }
}

}  // namespace middlefl::comm
