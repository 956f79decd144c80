// Device-to-edge association over time.
//
// The paper needs exactly one thing from a mobility substrate: the set
// M_t_n of devices connected to each edge at every time step, with devices
// moving across edges at an expected global rate P ("our solution is
// orthogonal to the classic mobility models"). The interface exposes the
// per-step assignment; implementations are the Markov edge-transition model
// (direct control of P; the paper-style runs use its home-ring topology)
// and trace replay (recorded or measured association logs).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace middlefl::parallel {
class ThreadPool;
}

namespace middlefl::mobility {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  virtual std::string name() const = 0;
  virtual std::size_t num_devices() const = 0;
  virtual std::size_t num_edges() const = 0;

  /// Edge of each device at the current time step. Assignments partition
  /// the device set (paper Eq. 3): every device is connected to exactly one
  /// edge.
  virtual const std::vector<std::size_t>& assignment() const = 0;

  /// Advances one time step, updating the assignment.
  virtual void advance() = 0;

  /// Devices whose edge changed in the last advance(), ascending by id —
  /// the mover delta that lets callers patch per-edge membership instead
  /// of rescanning the whole fleet. nullptr when the model does not track
  /// movers: the simulator then finds them with an O(n) diff of the
  /// assignment against the edges its membership holds (2 bytes per
  /// device) each step, and applies them the same way. The list is empty
  /// after reset() / before the first advance(), and valid until the next
  /// advance() or reset(). Invariant (pinned by mobility_test): the list
  /// equals moved_devices(assignment before, assignment after).
  virtual const std::vector<std::size_t>* movers() const { return nullptr; }

  /// Non-owning worker pool for models whose advance() can shard across
  /// devices (the Markov walk draws from one stream per (seed, step,
  /// shard), over shard boundaries that depend only on the device count,
  /// so shards run in any order). nullptr reverts to serial. Sharding
  /// never changes the assignment or the mover list.
  virtual void set_pool(parallel::ThreadPool* /*pool*/) {}

  /// Restores the initial assignment (step 0).
  virtual void reset() = 0;

  /// Time steps advanced since construction/reset.
  virtual std::size_t step() const = 0;
};

/// Devices that changed edge between the previous and current assignment.
std::vector<std::size_t> moved_devices(
    const std::vector<std::size_t>& previous,
    const std::vector<std::size_t>& current);

/// Runs `steps` transitions on a copy-free dry run and returns the empirical
/// per-device-per-step cross-edge move rate (the global mobility P). Resets
/// the model afterwards.
double measure_mobility(MobilityModel& model, std::size_t steps);

}  // namespace middlefl::mobility
