// Runtime-dispatched SIMD kernels for the fused inference engine.
//
// PR 7's kernels leaned on the auto-vectorizer, which compiles the
// runtime-bound axpy loops to SSE width (the project is built without
// -march, so 128-bit is all the compiler may assume). This layer adds
// width-explicit AVX-512F / AVX2 / SSE2 / scalar implementations of the
// hot kernels, compiled one tier per translation unit under per-file
// -m flags (see src/CMakeLists.txt), and selects one tier per process at
// first use via CPUID — so a single binary runs on any x86-64 host and
// uses the widest units it has.
//
// Bitwise contract (the same one nn/inference.hpp states against the
// tensor path): every tier vectorizes across *output columns only* —
// each c[j] accumulates from +0 in k-ascending order and skips zero A
// entries — and uses separate mul + add steps (the tier TUs are compiled
// with -ffp-contract=off and no FMA), so each element's float rounding
// sequence is identical in every tier. The vector tiers' matmul is
// register-blocked (a block of rows x column groups of C stays
// in registers for the whole k loop) and skips zeros without a branch:
// it adds a masked product that is +0 where the A entry is ±0. Adding +0
// is the same as skipping, because an accumulator that starts at +0 can
// never become -0, and x + (+0) == x for every other x, NaN and ±inf
// included; the mask also keeps 0 * inf from ever forming. The scalar
// tier keeps nn::matmul's branching axpy loop, which the compiler widens
// where a per-element select would stay scalar. All tiers therefore
// return bit-identical results; the dispatch level is a pure throughput
// knob.
//
// Selection order, resolved once at first kernel use:
//   1. SYN_SIMD_LEVEL=scalar|sse2|avx2|avx512 (testing/ops override;
//      silently clamped to what host + build support),
//   2. otherwise the widest tier the CPU supports.
// Tests sweep tiers with set_simd_level()/refresh_simd_level().
#pragma once

#include <cstddef>

namespace syn::nn {

/// Dispatch tiers, widest last. Ordering is meaningful: levels clamp
/// downward to host support.
enum class SimdLevel { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

/// "scalar" / "sse2" / "avx2" / "avx512".
const char* to_string(SimdLevel level);
/// Inverse of to_string (case-sensitive); false on unknown names.
bool parse_simd_level(const char* name, SimdLevel& out);

/// Widest tier both compiled into this binary and supported by the CPU.
SimdLevel max_supported_simd_level();

/// The tier in effect for this process (resolution order above).
SimdLevel active_simd_level();
/// to_string(active_simd_level()) — for bench context / METRICS.
const char* active_simd_level_name();

/// Installs `level` (clamped to max_supported_simd_level()) and returns
/// what actually took effect. Testing/ops hook; thread-safe, but callers
/// are responsible for not racing it against in-flight kernels if they
/// care which tier those used (results are bit-identical either way).
SimdLevel set_simd_level(SimdLevel level);
/// Re-resolves from SYN_SIMD_LEVEL + CPUID (the process-start logic) and
/// returns the tier now in effect. Lets tests sweep tiers via setenv().
SimdLevel refresh_simd_level();

/// One tier's kernel table. All pointers are always non-null.
struct SimdKernels {
  /// C = A (rows x k_dim) * B (k_dim x n) with nn::matmul's exact
  /// per-element accumulation order (from +0, k ascending, zero-skip on A
  /// entries). Every element of C is written; its prior contents are
  /// never read. No aliasing allowed.
  void (*matmul_rows)(const float* a, std::size_t rows, std::size_t k_dim,
                      const float* b, std::size_t n, float* c);
  /// y[j] += x[j] * a — the mean-aggregation accumulate (operand order
  /// matches nn::aggregate_rows: value * inv).
  void (*axpy)(float* y, const float* x, float a, std::size_t n);
  /// y[r, j] += bias[j] for rows x n contiguous y.
  void (*bias_rows)(float* y, const float* bias, std::size_t rows,
                    std::size_t n);
  /// y[r, j] = relu(y[r, j] + bias[j]) — the fused bias+ReLU epilogue.
  void (*bias_relu_rows)(float* y, const float* bias, std::size_t rows,
                         std::size_t n);
  /// out[r, j] = (u[r*u_stride + j] + bu[j]) + (v[r*v_stride + j] + bv[j])
  /// for j < n — the two-operand bias epilogue of the GRU gates and the
  /// MPNN combine, with per-row strides so packed gate blocks ([z|r|n]
  /// column-concatenated) can be addressed in place.
  void (*add2_bias_rows)(float* out, std::size_t out_stride, const float* u,
                         std::size_t u_stride, const float* bu, const float* v,
                         std::size_t v_stride, const float* bv,
                         std::size_t rows, std::size_t n);
  /// Same, with the ReLU fused on top (the MPNN layer epilogue).
  void (*add2_bias_relu_rows)(float* out, std::size_t out_stride,
                              const float* u, std::size_t u_stride,
                              const float* bu, const float* v,
                              std::size_t v_stride, const float* bv,
                              std::size_t rows, std::size_t n);
};

/// The active tier's kernel table (one atomic load; resolves on first
/// call). Hot paths may cache the reference for a call's duration.
const SimdKernels& simd_kernels();

/// Read-prefetch hint (_mm_prefetch T0 on x86, __builtin_prefetch
/// elsewhere, no-op where neither exists). Purely advisory: never changes
/// results, safe on any address.
inline void prefetch_ro(const void* p) {
#if defined(__SSE2__) || defined(_M_X64)
  __builtin_prefetch(p, 0, 3);  // compiles to prefetcht0
#elif defined(__GNUC__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

namespace simd_detail {
// Per-tier tables, defined one per TU; null when the tier's ISA was not
// compiled in (non-x86 build, or a toolchain without the -m flag).
const SimdKernels* kernels_scalar();  // never null
const SimdKernels* kernels_sse2();
const SimdKernels* kernels_avx2();
const SimdKernels* kernels_avx512();
}  // namespace simd_detail

}  // namespace syn::nn
