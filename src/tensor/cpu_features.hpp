// Runtime CPU capability detection for the GEMM micro-kernel dispatch.
//
// The GEMM kernels behind blas.cpp ship three code paths compiled into
// every binary — scalar, AVX2+FMA and AVX-512F — and blas.cpp picks one at
// runtime from cpuid, so a portable (non-MIDDLEFL_NATIVE) Release build
// still runs the widest kernel the machine supports. All three paths
// compute every C element with the same fixed K-accumulation tree, so
// which one runs never changes a single output bit; the choice is pure
// speed.
//
// Test hooks: force_isa() pins the dispatch to a (supported) level and the
// MIDDLEFL_ISA environment variable ("scalar" / "avx2" / "avx512") does the
// same without recompiling — both clamp to what the host actually has.
#pragma once

#include <optional>
#include <string>

namespace middlefl::tensor {

/// Instruction-set tiers of the GEMM kernels, widest last.
enum class IsaLevel : int {
  kScalar = 0,  // fixed-lane C++ (still autovectorizable by the compiler)
  kAvx2 = 1,    // 8-lane __m256 micro-kernel (requires AVX2 + FMA)
  kAvx512 = 2,  // 16-lane __m512 micro-kernel (requires AVX-512F)
};

const char* to_string(IsaLevel level) noexcept;

/// Parses "scalar" / "avx2" / "avx512"; nullopt for anything else.
std::optional<IsaLevel> isa_from_string(const std::string& name) noexcept;

/// The widest level this CPU supports (cpuid probe, cached after the first
/// call). Non-x86 builds always report kScalar.
IsaLevel detected_isa() noexcept;

/// The level the GEMM dispatch will use: the forced level if force_isa()
/// was called, else the MIDDLEFL_ISA override, else detected_isa().
/// Overrides are clamped to detected_isa() — requesting an unsupported
/// level can never select a kernel the CPU would fault on.
IsaLevel active_isa() noexcept;

/// Pins the dispatch to min(level, detected_isa()) and returns the level
/// actually applied. Used by the dispatch-parity tests to run the same
/// inputs through every supported kernel.
IsaLevel force_isa(IsaLevel level) noexcept;

/// Clears a force_isa() pin (environment override applies again).
void clear_forced_isa() noexcept;

}  // namespace middlefl::tensor
