// Scalar instantiation of the GEMM kernels — the dispatch floor that every
// platform can run. Compiled with -ffp-contract=off like its SIMD
// siblings, so per-element rounding follows the shared contracts exactly
// (the compiler may still autovectorize the fixed-lane loops; that changes
// instruction selection, never per-element arithmetic order).
#include "tensor/kernels/gemm_kernel_impl.hpp"

namespace middlefl::tensor::detail {

const GemmKernels& scalar_kernels() noexcept {
  return kernel_table<ArchScalar, NtScalar, PoolScalar>();
}

}  // namespace middlefl::tensor::detail
