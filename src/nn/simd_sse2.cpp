// SSE2 dispatch tier (128-bit, 4 floats/lane-group). SSE2 is part of the
// x86-64 baseline, so this TU needs no extra -m flag — only
// -ffp-contract=off (set in src/CMakeLists.txt) to pin the separate
// mul/add steps the bitwise contract requires. On non-x86 builds the
// __SSE2__ guard compiles this TU down to a null tier.
#include "nn/simd_body.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>

namespace syn::nn::simd_detail {

namespace {

struct Sse2V {
  using reg = __m128;
  static constexpr std::size_t width = 4;
  static reg loadu(const float* p) { return _mm_loadu_ps(p); }
  static void storeu(float* p, reg v) { _mm_storeu_ps(p, v); }
  static reg set1(float v) { return _mm_set1_ps(v); }
  static reg add(reg a, reg b) { return _mm_add_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm_mul_ps(a, b); }
  // maxps returns SRC2 when either operand is NaN or both are zero, so
  // with v as SRC1 this matches `v > 0.0f ? v : 0.0f` bitwise
  // (NaN -> +0, -0 -> +0, +0 -> +0).
  static reg max0(reg v) { return _mm_max_ps(v, _mm_setzero_ps()); }
  // cmpneqps is the unordered "not equal" (NaN compares true), so the
  // AND keeps a * b wherever a != 0 or a is NaN and yields +0 elsewhere.
  static reg mul_nz(reg a, reg b) {
    return _mm_and_ps(_mm_mul_ps(a, b), _mm_cmpneq_ps(a, _mm_setzero_ps()));
  }
};

const SimdKernels kTable = make_kernels<Sse2V>();

}  // namespace

const SimdKernels* kernels_sse2() { return &kTable; }

}  // namespace syn::nn::simd_detail

#else  // !__SSE2__

namespace syn::nn::simd_detail {
const SimdKernels* kernels_sse2() { return nullptr; }
}  // namespace syn::nn::simd_detail

#endif
