// AVX2 dispatch tier (256-bit, 8 floats/lane-group). Compiled with
// per-file `-mavx2 -mno-fma -ffp-contract=off` (src/CMakeLists.txt):
// -mno-fma + contract=off forbid the compiler from fusing our separate
// _mm256_mul_ps/_mm256_add_ps into one FMA, which would change rounding
// and break the bitwise contract with the scalar tier. Without the flags
// (non-x86 target) the __AVX2__ guard yields a null tier.
#include "nn/simd_body.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

namespace syn::nn::simd_detail {

namespace {

struct Avx2V {
  using reg = __m256;
  static constexpr std::size_t width = 8;
  static reg loadu(const float* p) { return _mm256_loadu_ps(p); }
  static void storeu(float* p, reg v) { _mm256_storeu_ps(p, v); }
  static reg set1(float v) { return _mm256_set1_ps(v); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  // vmaxps returns SRC2 for NaN/both-zero, so v as SRC1 matches the
  // scalar `v > 0.0f ? v : 0.0f` bitwise.
  static reg max0(reg v) { return _mm256_max_ps(v, _mm256_setzero_ps()); }
  // a * b ANDed with an unordered not-equal mask: the product where
  // a != 0 or a is NaN, +0 elsewhere.
  static reg mul_nz(reg a, reg b) {
    return _mm256_and_ps(_mm256_mul_ps(a, b),
                         _mm256_cmp_ps(a, _mm256_setzero_ps(), _CMP_NEQ_UQ));
  }
};

const SimdKernels kTable = make_kernels<Avx2V>();

}  // namespace

const SimdKernels* kernels_avx2() { return &kTable; }

}  // namespace syn::nn::simd_detail

#else  // !__AVX2__

namespace syn::nn::simd_detail {
const SimdKernels* kernels_avx2() { return nullptr; }
}  // namespace syn::nn::simd_detail

#endif
