// Internal: the one set of kernel bodies every SIMD tier instantiates.
//
// Each tier TU (simd_scalar.cpp, simd_sse2.cpp, simd_avx2.cpp,
// simd_avx512.cpp) defines a vector-traits struct V — register type,
// width, loadu/storeu/set1/add/mul/max0, plus mul_nz on the vector tiers
// — and exports make_kernels<V>(). Keeping a single body guarantees
// every tier runs the *same* loop structure: vectorization only ever
// spans output columns (j), each element's k-ascending accumulation from
// +0 and its zero-skip are shared source code, and mul/add stay separate
// intrinsics. Bitwise equality across tiers is then a property of the
// template, not of four hand-kept copies.
//
// Traits contract:
//   using reg = ...;                      // vector register type
//   static constexpr std::size_t width;   // floats per register
//   static reg  loadu(const float*);      // unaligned load
//   static void storeu(float*, reg);      // unaligned store
//   static reg  set1(float);              // broadcast
//   static reg  add(reg, reg);            // lane-wise a + b
//   static reg  mul(reg, reg);            // lane-wise a * b
//   static reg  max0(reg);                // lane-wise max(x, +0.0f),
//                                         // NaN -> +0.0f (x is SRC1)
//   static reg  mul_nz(reg a, reg b);     // lane-wise a != 0 ? a * b : +0
//                                         // (NaN a multiplies); width > 1
// max0 must match the scalar `x > 0.0f ? x : 0.0f` bitwise: on x86 that
// is max_ps(x, zero) — both-zero and NaN operands resolve to SRC2 (+0).
//
// Register-blocked matmul and the masked zero-skip. The vector tiers'
// matmul holds a block of kBlockRows rows x up to kMaxGroups vector
// column groups of C in registers for the whole k loop, loading each B
// row once per block. Instead of branching on a zero A entry it adds
// mul_nz(a, b): +0 where a == 0. That is exactly the skip, because an
// accumulator that starts at +0 is never -0 (in round-to-nearest a sum
// is -0 only when both operands are -0), and x + (+0) == x bitwise for
// every other x, NaN and ±inf included. The masked product also never
// forms 0 * inf, so inf and NaN weights behind a zero activation stay
// skipped. The width-1 (scalar) tier keeps nn::matmul's axpy-with-branch
// body instead: the compiler cannot vectorize the per-element select, and
// the plain axpy loop is the one it widens on its own.
#pragma once

#include <cstddef>

#include "nn/simd.hpp"

namespace syn::nn::simd_detail {

/// Rows per register block of the vector matmul, and the most vector
/// column groups one block holds (8 x 4 accumulators at most).
inline constexpr std::size_t kBlockRows = 8;
inline constexpr std::size_t kMaxGroups = 4;

/// Scalar form of mul_nz for the column tail: a * b where a != 0 (NaN
/// included), else +0.
inline float mul_nz_scalar(float a, float b) {
  return a != 0.0f ? a * b : 0.0f;
}

/// C[r, j0 + g*width + l] for r < MR, g < NG: MR x NG accumulators live
/// in registers across the whole k loop; B's row k is loaded once per
/// block. a/c point at the block's first row (row strides k_dim and n).
template <class V, std::size_t MR, std::size_t NG>
inline void matmul_block(const float* __restrict a, std::size_t k_dim,
                         const float* __restrict b, std::size_t n,
                         float* __restrict c, std::size_t j0) {
  using reg = typename V::reg;
  reg acc[MR][NG];
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t g = 0; g < NG; ++g) acc[r][g] = V::set1(0.0f);
  }
  for (std::size_t k = 0; k < k_dim; ++k) {
    const float* __restrict brow = b + k * n + j0;
    reg bv[NG];
    for (std::size_t g = 0; g < NG; ++g) bv[g] = V::loadu(brow + g * V::width);
    for (std::size_t r = 0; r < MR; ++r) {
      const reg av = V::set1(a[r * k_dim + k]);
      for (std::size_t g = 0; g < NG; ++g) {
        acc[r][g] = V::add(acc[r][g], V::mul_nz(av, bv[g]));
      }
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t g = 0; g < NG; ++g) {
      V::storeu(c + r * n + j0 + g * V::width, acc[r][g]);
    }
  }
}

/// Every column of an MR-row block: full vector groups kMaxGroups at a
/// time, the leftover groups in one narrower block, then the columns past
/// the last full group scalar, one accumulator per row.
template <class V, std::size_t MR>
inline void matmul_row_block(const float* __restrict a, std::size_t k_dim,
                             const float* __restrict b, std::size_t n,
                             float* __restrict c) {
  const std::size_t groups = n / V::width;
  std::size_t g = 0;
  for (; g + kMaxGroups <= groups; g += kMaxGroups) {
    matmul_block<V, MR, kMaxGroups>(a, k_dim, b, n, c, g * V::width);
  }
  switch (groups - g) {
    case 3: matmul_block<V, MR, 3>(a, k_dim, b, n, c, g * V::width); break;
    case 2: matmul_block<V, MR, 2>(a, k_dim, b, n, c, g * V::width); break;
    case 1: matmul_block<V, MR, 1>(a, k_dim, b, n, c, g * V::width); break;
    default: break;
  }
  for (std::size_t j = groups * V::width; j < n; ++j) {
    float acc[MR] = {};
    for (std::size_t k = 0; k < k_dim; ++k) {
      const float bv = b[k * n + j];
      for (std::size_t r = 0; r < MR; ++r) {
        acc[r] += mul_nz_scalar(a[r * k_dim + k], bv);
      }
    }
    for (std::size_t r = 0; r < MR; ++r) c[r * n + j] = acc[r];
  }
}

template <class V>
void matmul_rows_t(const float* __restrict a, std::size_t rows,
                   std::size_t k_dim, const float* __restrict b, std::size_t n,
                   float* __restrict c) {
  if constexpr (V::width > 1) {
    // Register-blocked: row blocks of kBlockRows, then the leftover rows
    // one at a time. Each block writes all of its C.
    std::size_t i = 0;
    for (; i + kBlockRows <= rows; i += kBlockRows) {
      matmul_row_block<V, kBlockRows>(a + i * k_dim, k_dim, b, n, c + i * n);
    }
    for (; i < rows; ++i) {
      matmul_row_block<V, 1>(a + i * k_dim, k_dim, b, n, c + i * n);
    }
  } else {
    // Scalar tier: exactly nn::matmul's loops.
    for (std::size_t i = 0; i < rows * n; ++i) c[i] = 0.0f;
    for (std::size_t i = 0; i < rows; ++i) {
      const float* __restrict arow = a + i * k_dim;
      float* __restrict crow = c + i * n;
      for (std::size_t k = 0; k < k_dim; ++k) {
        const float av = arow[k];
        if (av == 0.0f) continue;
        const float* __restrict brow = b + k * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

template <class V>
void axpy_t(float* __restrict y, const float* __restrict x, float a,
            std::size_t n) {
  std::size_t j = 0;
  if constexpr (V::width > 1) {
    const typename V::reg va = V::set1(a);
    // mul(x, a): operand order matches the scalar `x[j] * a`.
    for (; j + V::width <= n; j += V::width) {
      V::storeu(y + j, V::add(V::loadu(y + j), V::mul(V::loadu(x + j), va)));
    }
  }
  for (; j < n; ++j) y[j] += x[j] * a;
}

template <class V, bool kRelu>
void bias_rows_t(float* __restrict y, const float* __restrict bias,
                 std::size_t rows, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict yrow = y + r * n;
    std::size_t j = 0;
    if constexpr (V::width > 1) {
      for (; j + V::width <= n; j += V::width) {
        typename V::reg v = V::add(V::loadu(yrow + j), V::loadu(bias + j));
        if constexpr (kRelu) v = V::max0(v);
        V::storeu(yrow + j, v);
      }
    }
    for (; j < n; ++j) {
      const float v = yrow[j] + bias[j];
      yrow[j] = kRelu ? (v > 0.0f ? v : 0.0f) : v;
    }
  }
}

template <class V, bool kRelu>
void add2_bias_rows_t(float* __restrict out, std::size_t out_stride,
                      const float* __restrict u, std::size_t u_stride,
                      const float* __restrict bu, const float* __restrict v,
                      std::size_t v_stride, const float* __restrict bv,
                      std::size_t rows, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict orow = out + r * out_stride;
    const float* __restrict urow = u + r * u_stride;
    const float* __restrict vrow = v + r * v_stride;
    std::size_t j = 0;
    if constexpr (V::width > 1) {
      for (; j + V::width <= n; j += V::width) {
        // (u + bu) + (v + bv): the tensor path's exact association.
        typename V::reg s =
            V::add(V::add(V::loadu(urow + j), V::loadu(bu + j)),
                   V::add(V::loadu(vrow + j), V::loadu(bv + j)));
        if constexpr (kRelu) s = V::max0(s);
        V::storeu(orow + j, s);
      }
    }
    for (; j < n; ++j) {
      const float s = (urow[j] + bu[j]) + (vrow[j] + bv[j]);
      orow[j] = kRelu ? (s > 0.0f ? s : 0.0f) : s;
    }
  }
}

template <class V>
constexpr SimdKernels make_kernels() {
  return SimdKernels{
      &matmul_rows_t<V>,          &axpy_t<V>,
      &bias_rows_t<V, false>,     &bias_rows_t<V, true>,
      &add2_bias_rows_t<V, false>, &add2_bias_rows_t<V, true>,
  };
}

}  // namespace syn::nn::simd_detail
