// Structured run logs: one JSON object per line (JSONL).
//
// The RunLogger is the machine-readable flight record of a simulation run:
// it writes the simulator's StepRecord for each time step (phase timings,
// per-link wire-traffic deltas, selection/dropout/blend counts) and one
// EvalRecord per evaluation point; each becomes a single self-contained
// JSON line, so logs stream, tail, and grep cleanly and load with one
// `json.loads` per line.
//
// The logger is deliberately passive — it formats and writes exactly what
// it is given, on the caller's thread, at serial points. It holds no
// references into the simulation and cannot perturb it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

namespace middlefl::obs {

/// Wall-microsecond totals of one step's phases: the serial prologue split
/// into the mobility advance and the per-edge membership update, the five
/// fused chain phases summed across edges (CPU time per phase, not wall
/// time, when chains run in parallel), and the serial cloud sync.
struct StepPhaseUs {
  double mobility = 0.0;
  double membership = 0.0;
  double select = 0.0;
  double distribute = 0.0;
  double local_train = 0.0;
  double upload = 0.0;
  double edge_aggregate = 0.0;
  double cloud_sync = 0.0;
};

/// One StepRecord::links slot per transport link, indexed by
/// transport::LinkKind.
inline constexpr std::size_t kStepLinks = 6;

/// Wire-traffic delta of one link over one step.
struct LinkDeltaRecord {
  std::string link;  // transport::to_string(kind)
  std::size_t transfers = 0;
  std::size_t dropped = 0;
  std::size_t bytes = 0;
  std::size_t in_flight = 0;  // absolute queue depth at end of step
};

/// Everything the simulator knows about one completed step.
struct StepRecord {
  std::size_t step = 0;
  bool synced = false;
  /// Devices that changed edge this step, and that count over the fleet
  /// size: the measured global mobility P of paper Eq. 3.
  std::size_t movers = 0;
  double measured_p = 0.0;
  std::size_t selected = 0;
  std::size_t lost_downloads = 0;
  std::size_t blends = 0;
  double blend_weight_sum = 0.0;
  /// Edge models aggregated by the cloud this step (sync steps only).
  std::size_t contributing_edges = 0;
  /// Fleet (device registry) accounting: writes this step that gave a
  /// device its own copy of its parameters, and the peak count of devices
  /// holding one.
  std::uint64_t materializations = 0;
  std::uint64_t resident_peak = 0;
  /// Wall time of the whole step on the driving thread.
  double step_wall_us = 0.0;
  StepPhaseUs phase_us;
  std::array<LinkDeltaRecord, kStepLinks> links;
};

/// One evaluation point.
struct EvalRecord {
  std::size_t step = 0;
  double accuracy = 0.0;
  double loss = 0.0;
  double wall_us = 0.0;
};

class RunLogger {
 public:
  /// Appends to `path` is false — the file is truncated and owned.
  /// Throws std::runtime_error when the file cannot be opened.
  explicit RunLogger(const std::string& path);
  /// Writes to an external stream; the caller keeps ownership.
  explicit RunLogger(std::ostream& out) : out_(&out) {}
  RunLogger(const RunLogger&) = delete;
  RunLogger& operator=(const RunLogger&) = delete;

  void log_step(const StepRecord& record);
  void log_eval(const EvalRecord& record);
  /// Writes one caller-formatted JSONL row verbatim (plus the newline) —
  /// used by sweep runners that assemble rows from whole-run summaries
  /// rather than per-step records. `line` must be one complete JSON
  /// object without a trailing newline.
  void log_line(const std::string& line);

  std::size_t records_written() const noexcept { return records_; }
  void flush();

 private:
  std::ofstream owned_;
  std::ostream* out_ = nullptr;
  std::size_t records_ = 0;
};

}  // namespace middlefl::obs
