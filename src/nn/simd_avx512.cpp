// AVX-512F dispatch tier (512-bit, 16 floats/lane-group). Compiled with
// per-file `-mavx512f -mno-fma -ffp-contract=off` (src/CMakeLists.txt);
// same no-FMA reasoning as the AVX2 TU. Only the F (foundation) subset is
// used — plain loads/stores/mul/add/max — so any AVX-512 CPU qualifies.
#include "nn/simd_body.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>

namespace syn::nn::simd_detail {

namespace {

struct Avx512V {
  using reg = __m512;
  static constexpr std::size_t width = 16;
  static reg loadu(const float* p) { return _mm512_loadu_ps(p); }
  static void storeu(float* p, reg v) { _mm512_storeu_ps(p, v); }
  static reg set1(float v) { return _mm512_set1_ps(v); }
  static reg add(reg a, reg b) { return _mm512_add_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_ps(a, b); }
  // vmaxps zmm semantics match SSE/AVX: SRC2 on NaN/both-zero, so v as
  // SRC1 matches the scalar `v > 0.0f ? v : 0.0f` bitwise. The all-lanes
  // masked form is the same instruction with an explicit pass-through
  // operand; GCC 12's _mm512_max_ps passes _mm512_undefined_ps(), which
  // trips -Wmaybe-uninitialized.
  static reg max0(reg v) {
    const reg zero = _mm512_setzero_ps();
    return _mm512_mask_max_ps(zero, 0xFFFF, v, zero);
  }
  // Zero-masked multiply under an unordered not-equal mask: a * b where
  // a != 0 or a is NaN, +0 elsewhere.
  static reg mul_nz(reg a, reg b) {
    const __mmask16 nz =
        _mm512_cmp_ps_mask(a, _mm512_setzero_ps(), _CMP_NEQ_UQ);
    return _mm512_maskz_mul_ps(nz, a, b);
  }
};

const SimdKernels kTable = make_kernels<Avx512V>();

}  // namespace

const SimdKernels* kernels_avx512() { return &kTable; }

}  // namespace syn::nn::simd_detail

#else  // !__AVX512F__

namespace syn::nn::simd_detail {
const SimdKernels* kernels_avx512() { return nullptr; }
}  // namespace syn::nn::simd_detail

#endif
