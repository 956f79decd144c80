// Pins the GEMM dispatch to one ISA tier for a scope, so a test can run the
// same inputs through every kernel tier the host supports.
#pragma once

#include <vector>

#include "tensor/cpu_features.hpp"

namespace middlefl::test_support {

/// Pins the GEMM dispatch to a level for the lifetime of the guard.
struct IsaGuard {
  explicit IsaGuard(tensor::IsaLevel level)
      : applied(tensor::force_isa(level)) {}
  ~IsaGuard() { tensor::clear_forced_isa(); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
  tensor::IsaLevel applied;
};

/// Every tier this host can run, scalar first.
inline std::vector<tensor::IsaLevel> supported_isas() {
  std::vector<tensor::IsaLevel> levels;
  for (const tensor::IsaLevel level :
       {tensor::IsaLevel::kScalar, tensor::IsaLevel::kAvx2,
        tensor::IsaLevel::kAvx512}) {
    if (static_cast<int>(level) <= static_cast<int>(tensor::detected_isa())) {
      levels.push_back(level);
    }
  }
  return levels;
}

}  // namespace middlefl::test_support
