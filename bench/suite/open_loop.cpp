#include "open_loop.hpp"

#include <cmath>
#include <stdexcept>

#include "affinity.hpp"
#include "parallel/rng.hpp"
#include "report.hpp"

namespace middlefl::bench::suite {

bool OpenLoopWindow::meets(double p99_limit_us) const {
  if (offered == 0) return false;
  const bool complete_enough = static_cast<double>(completed) >=
                               0.99 * static_cast<double>(offered);
  return complete_enough && quantile(latency_us, 0.99) <= p99_limit_us;
}

OpenLoopGenerator::OpenLoopGenerator(serve::ServingHub& hub,
                                     const data::Dataset& samples,
                                     std::size_t edge, std::uint64_t seed)
    : hub_(hub), samples_(samples), edge_(edge), seed_(seed) {
  if (samples_.size() == 0) {
    throw std::invalid_argument("OpenLoopGenerator: empty sample set");
  }
}

OpenLoopGenerator::~OpenLoopGenerator() {
  if (sender_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    sender_.join();
    hub_.quiesce();
  }
}

void OpenLoopGenerator::start(double qps, double seconds) {
  if (sender_.joinable()) {
    throw std::logic_error("OpenLoopGenerator: window already running");
  }
  if (!(qps > 0.0) || !(seconds > 0.0)) {
    throw std::invalid_argument("OpenLoopGenerator: qps and seconds > 0");
  }
  qps_ = qps;
  capacity_ = static_cast<std::size_t>(std::ceil(qps * seconds));
  tickets_ = std::make_unique<serve::ServeTicket[]>(capacity_);
  lag_us_.assign(capacity_, 0.0);
  accepted_.assign(capacity_, 0);
  sent_ = 0;
  stop_.store(false, std::memory_order_relaxed);
  sender_done_.store(false, std::memory_order_release);
  sender_ = std::thread([this] { send_loop(); });
}

void OpenLoopGenerator::send_loop() {
  using Clock = std::chrono::steady_clock;
  unpin_this_thread();
  begin_ = Clock::now();
  const double period_us = 1e6 / qps_;
  std::size_t i = 0;
  for (; i < capacity_ && !stop_.load(std::memory_order_relaxed); ++i) {
    const auto due =
        begin_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::micro>(
                         period_us * static_cast<double>(i)));
    auto now = Clock::now();
    if (now < due) {
      std::this_thread::sleep_until(due);
      now = Clock::now();
    }
    lag_us_[i] = std::chrono::duration<double, std::micro>(now - due).count();
    const std::uint64_t pick =
        parallel::splitmix64(parallel::hash_combine(seed_, sent_total_ + i));
    const std::span<const float> features =
        samples_.features(static_cast<std::size_t>(pick % samples_.size()));
    accepted_[i] = hub_.edge(edge_).submit(features, tickets_[i]) ? 1 : 0;
  }
  sent_ = i;
  end_ = Clock::now();
  sender_done_.store(true, std::memory_order_release);
}

OpenLoopWindow OpenLoopGenerator::finish() {
  OpenLoopWindow w;
  if (!sender_.joinable()) return w;
  stop_.store(true, std::memory_order_relaxed);
  sender_.join();
  hub_.quiesce();
  sent_total_ += sent_;

  const auto num_classes = static_cast<std::int32_t>(samples_.num_classes());
  w.seconds = std::chrono::duration<double>(end_ - begin_).count();
  w.offered = sent_;
  w.latency_us.reserve(sent_);
  w.server_us.reserve(sent_);
  w.lag_us.assign(lag_us_.begin(), lag_us_.begin() + static_cast<long>(sent_));
  for (std::size_t i = 0; i < sent_; ++i) {
    if (accepted_[i] == 0) {
      ++w.rejected;
      continue;
    }
    const serve::ServeTicket& ticket = tickets_[i];
    if (!ticket.done()) {
      ++w.incomplete;
      continue;
    }
    if (ticket.prediction() < 0 || ticket.prediction() >= num_classes) {
      ++w.invalid;
      continue;
    }
    ++w.completed;
    w.server_us.push_back(ticket.latency_us());
    w.latency_us.push_back(lag_us_[i] + ticket.latency_us());
  }
  return w;
}

}  // namespace middlefl::bench::suite
