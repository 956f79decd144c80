// Single-producer-per-slot mailbox: the hand-off between the parallel
// per-edge chains and the serial cloud-apply point, in both the default
// synchronous mode and the semi-async one. Each edge owns exactly one slot
// and posts its round-boundary contribution from inside its own chain; the
// serial point consumes every slot in canonical edge order after the
// step's edge fan-out has joined.
//
// Concurrency contract: slot i is written only by the task that owns edge
// i, and read/cleared only at serial points. The parallel_for join is the
// happens-before edge between post() and take() — no atomics are needed,
// and the consumption order (edge 0..N-1) is fixed, so the apply sequence
// is deterministic at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace middlefl::comm {

template <class T>
class Mailbox {
 public:
  Mailbox() = default;
  explicit Mailbox(std::size_t slots) : slots_(slots) {}

  void resize(std::size_t slots) { slots_.resize(slots); }
  std::size_t slots() const noexcept { return slots_.size(); }

  /// Posts into `slot`, overwriting any unconsumed value (the newest
  /// contribution supersedes an unread one).
  void post(std::size_t slot, T value) {
    Slot& s = slots_.at(slot);
    s.value = std::move(value);
    s.occupied = true;
  }

  bool has(std::size_t slot) const { return slots_.at(slot).occupied; }

  /// Consumes and returns the slot's value, if any.
  std::optional<T> take(std::size_t slot) {
    Slot& s = slots_.at(slot);
    if (!s.occupied) return std::nullopt;
    s.occupied = false;
    return std::move(s.value);
  }

 private:
  struct Slot {
    bool occupied = false;
    T value{};
  };
  std::vector<Slot> slots_;
};

/// Bookkeeping of the semi-async cloud path, updated only at the serial
/// apply point (plain fields). Cross-checkable against the simulator's
/// per-step records: `applied` equals the summed `contributing_edges` of
/// the synced steps, `applies` their count, and `published` the summed
/// wan_up transfers in async mode (every publish is exactly one wan_up
/// send).
struct AsyncStats {
  std::uint64_t published = 0;      // contributions posted by edge chains
  std::uint64_t applied = 0;        // folded into a cloud aggregate
  std::uint64_t deferred = 0;       // queued in flight by WAN latency
  std::uint64_t dropped_stale = 0;  // past max_staleness; weight folded
                                    // into the edge's next contribution
  std::uint64_t applies = 0;        // serial apply passes that updated the
                                    // global model
};

}  // namespace middlefl::comm
