// Learning-rate schedules over FL time steps.
//
// The Theorem-1 analysis assumes the diminishing schedule
// eta_t = 2 / (mu * (gamma + t)); the experiments use a constant rate.
// Both map a global time step to a rate the simulator installs on each
// selected device's optimizer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

namespace middlefl::optim {

using LrSchedule = std::function<double(std::size_t time_step)>;

inline LrSchedule constant_lr(double lr) {
  return [lr](std::size_t) { return lr; };
}

/// The schedule from Theorem 1: eta_t = 2 / (mu * (gamma + t)), with
/// gamma = max(8 * beta / mu, I).
inline LrSchedule theorem1_lr(double mu, double beta, std::size_t local_steps) {
  const double gamma =
      std::max(8.0 * beta / mu, static_cast<double>(local_steps));
  return [mu, gamma](std::size_t t) {
    return 2.0 / (mu * (gamma + static_cast<double>(t)));
  };
}

}  // namespace middlefl::optim
