// Mobility trace record/replay.
//
// A trace is the full (step, device) -> edge table of a mobility run, in a
// line-oriented text format close to the ONE simulator's movement reports:
//
//   # middlefl-trace v1 devices=<M> edges=<N> steps=<T>
//   <step> <device> <edge>
//
// Recording lets a mobility run (or, in a real deployment, measured
// association logs) be replayed bit-exactly into the simulator.
// A cell is a 2-byte EdgeId, so a trace names at most kMaxEdges edges.
#pragma once

#include <iosfwd>
#include <string>

#include "mobility/edge_id.hpp"
#include "mobility/mobility_model.hpp"

namespace middlefl::mobility {

class Trace {
 public:
  Trace() = default;
  /// Throws std::invalid_argument on no devices, no edges or more than
  /// kMaxEdges edges.
  Trace(std::size_t num_devices, std::size_t num_edges);

  std::size_t num_devices() const noexcept { return num_devices_; }
  std::size_t num_edges() const noexcept { return num_edges_; }
  /// Number of recorded steps, including step 0 (the initial assignment).
  std::size_t num_steps() const noexcept {
    return num_devices_ == 0 ? 0 : table_.size() / num_devices_;
  }

  /// Appends one full assignment snapshot (must cover every device).
  void append(const std::vector<std::size_t>& assignment);

  /// Edge of `device` at `step`.
  std::size_t edge_at(std::size_t step, std::size_t device) const;

  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  /// Reads a saved trace: exactly one record per (step, device) cell, in
  /// any order. Malformed input (a bad header number, a header key given
  /// twice, steps * devices overflowing, a bad or out-of-range record, a
  /// duplicate or missing cell, a header naming more than kMaxEdges edges)
  /// throws std::runtime_error naming the line.
  static Trace load(std::istream& in);
  static Trace load_file(const std::string& path);

 private:
  std::size_t num_devices_ = 0;
  std::size_t num_edges_ = 0;
  std::vector<EdgeId> table_;  // step-major: table_[step*M + device]
};

/// Runs `model` for `steps` transitions and captures every assignment
/// (steps+1 snapshots including the initial one). Resets the model first.
Trace record_trace(MobilityModel& model, std::size_t steps);

/// MobilityModel that replays a Trace; advancing past the end holds the
/// last assignment (devices stop moving).
class TraceMobility final : public MobilityModel {
 public:
  explicit TraceMobility(Trace trace);

  std::string name() const override { return "trace-replay"; }
  std::size_t num_devices() const override { return trace_.num_devices(); }
  std::size_t num_edges() const override { return trace_.num_edges(); }
  const std::vector<std::size_t>& assignment() const override {
    return current_;
  }
  void advance() override;
  const std::vector<std::size_t>* movers() const override { return &movers_; }
  void reset() override;
  std::size_t step() const override { return step_; }

 private:
  void load_step(std::size_t step);

  Trace trace_;
  std::vector<std::size_t> current_;
  std::vector<std::size_t> movers_;
  std::size_t step_ = 0;
};

}  // namespace middlefl::mobility
