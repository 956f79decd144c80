// Open-loop request generator on top of ServingHub::submit.
//
// One thread sends single-sample requests to one edge on a fixed schedule
// (request i is due at start + i / qps) whether or not earlier requests
// have completed, so a stall in the serving path queues later requests
// instead of slowing the sender. Every request gets its own ticket, never
// reused within a window, so completions need no polling: after the window
// the hub is quiesced and each ticket is read once.
//
// Latency is timed from the request's scheduled send time: the sender's
// own lateness (actual send - due) plus the hub's enqueue -> completion
// time. The lateness is also reported on its own (generator lag).
// Rejected requests (queue full), requests still incomplete after the
// quiesce and predictions outside [0, num_classes) are failures.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "serve/serving.hpp"

namespace middlefl::bench::suite {

struct OpenLoopWindow {
  double seconds = 0.0;          // first due time -> sender exit
  std::uint64_t offered = 0;     // requests sent (submit attempted)
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t incomplete = 0;
  std::uint64_t invalid = 0;     // prediction outside [0, num_classes)
  std::vector<double> latency_us;  // due -> completion, completed only
  std::vector<double> server_us;   // hub enqueue -> completion
  std::vector<double> lag_us;      // actual send - due, every sent request

  std::uint64_t failed() const noexcept {
    return rejected + incomplete + invalid;
  }
  /// The goodput criterion: p99 within `p99_limit_us` and at least 99% of
  /// the offered requests completed.
  bool meets(double p99_limit_us) const;
};

class OpenLoopGenerator {
 public:
  /// `samples` supplies the request features and must outlive the
  /// generator; requests go to `edge`, sample order derives from `seed`.
  OpenLoopGenerator(serve::ServingHub& hub, const data::Dataset& samples,
                    std::size_t edge, std::uint64_t seed);
  ~OpenLoopGenerator();
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  /// Starts a window sending at `qps` for at most `seconds`. The hub must
  /// already serve a model on the target edge.
  void start(double qps, double seconds);
  /// True while the sender still has requests to send.
  bool running() const noexcept {
    return !sender_done_.load(std::memory_order_acquire);
  }
  /// Stops sending, joins the sender, quiesces the hub and collects the
  /// window.
  OpenLoopWindow finish();

 private:
  void send_loop();

  serve::ServingHub& hub_;
  const data::Dataset& samples_;
  const std::size_t edge_;
  const std::uint64_t seed_;
  std::uint64_t sent_total_ = 0;  // request counter across windows

  double qps_ = 0.0;
  std::size_t capacity_ = 0;
  std::unique_ptr<serve::ServeTicket[]> tickets_;
  std::vector<double> lag_us_;
  std::vector<std::uint8_t> accepted_;
  std::size_t sent_ = 0;
  std::chrono::steady_clock::time_point begin_{};
  std::chrono::steady_clock::time_point end_{};
  std::atomic<bool> stop_{false};
  std::atomic<bool> sender_done_{true};
  std::thread sender_;
};

}  // namespace middlefl::bench::suite
