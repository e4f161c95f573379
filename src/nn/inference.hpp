// Cache-conscious fused inference engine (no-grad, bitwise-equal to the
// tensor path).
//
// PR 3 established the pattern on the diffusion denoiser: batching alone
// *lost* to the scalar loop until the per-op tensor temporaries — each one
// a fresh (rows x cols) allocation streamed through and thrown away — were
// replaced by fused kernels whose working set stays inside L2. This header
// generalizes that into a reusable inference path for the repo's neural
// models (diffusion denoiser, discriminator MLP, baseline GRU/MLP
// samplers):
//
//   * InferenceArena — a grow-only bump allocator of 64-byte-aligned
//     float slabs. Activations for a whole forward (all layers, all
//     steps of an autoregressive loop) live here; reset()/rewind() make
//     reuse across ops, steps and calls free. No per-op temporaries.
//   * PackedLinear / PackedMlp / PackedGru — structure-of-arrays weight
//     layouts built once from the training modules via the existing
//     Linear::weight_value() accessors. The GRU packs its three input
//     gates (and the z/r hidden gates) into single column-concatenated
//     matrices so one matmul feeds all gates.
//   * PackedMlp::forward_rows / PackedGru::forward_rows — fused row
//     kernels whose matmuls (register-blocked on the vector tiers) and
//     bias+activation epilogues run on the runtime-dispatched SIMD tier
//     (nn/simd.hpp: AVX-512F / AVX2 / SSE2 / scalar, selected per process
//     by CPUID).
//
// Bitwise contract: every kernel reproduces the tensor ops' arithmetic
// exactly — nn::matmul's (i, k ascending with the zero-skip, j) loop
// order, the same bias/activation expressions on float, the same
// combination order for GRU gates. Register blocking only re-orders work
// *across* output elements, never the per-element accumulation sequence,
// so fused results are bit-identical to Mlp::forward / GruCell::forward
// at every batch size. The tensor path remains the training/autograd
// route; this is the inference route.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"

namespace syn::nn {

/// C = A * B with nn::matmul's exact per-element accumulation order (from
/// +0, k ascending, zero-skip on A entries) — bitwise equal to the tensor
/// op, because register blocking never touches the accumulation sequence
/// of a single C element. Every C element is written, none is read; the
/// kernel runs on the dispatched SIMD tier (nn/simd.hpp). A, B and C must
/// not overlap.
inline void matmul_rows(const float* a, std::size_t rows, std::size_t k_dim,
                        const float* b, std::size_t n, float* c) {
  simd_kernels().matmul_rows(a, rows, k_dim, b, n, c);
}

/// Grow-only bump allocator of 64-byte-aligned float buffers. All
/// activations of a fused forward borrow from here; nothing is freed
/// until the arena dies. reset() rewinds everything; mark()/rewind()
/// rewind a suffix (for per-block scratch inside a longer-lived layout).
/// Not thread-safe — use one arena per thread (thread_local at scoring
/// call sites).
class InferenceArena {
 public:
  struct Mark {
    std::size_t slab = 0;
    std::size_t offset = 0;
  };

  /// Uninitialized `count` floats, 64-byte aligned, valid until the next
  /// reset()/rewind() past this allocation.
  float* alloc(std::size_t count);

  [[nodiscard]] Mark mark() const { return {slab_, offset_}; }
  void rewind(Mark m) {
    slab_ = m.slab;
    offset_ = m.offset;
  }
  void reset() {
    slab_ = 0;
    offset_ = 0;
  }

  /// Total floats held across slabs (capacity, not live size). Grows
  /// monotonically between shrink() calls.
  [[nodiscard]] std::size_t capacity_floats() const;

  /// Floats consumed by live allocations (up to the current cursor).
  [[nodiscard]] std::size_t live_floats() const;

  /// Releases every slab and pre-allocates one of max(keep, 4096) floats,
  /// so the arena's footprint follows the workload back *down* after a
  /// high-water-mark batch (thread_local arenas otherwise hold their peak
  /// forever). No-op when capacity is already at that size or smaller.
  /// Invalidates all outstanding allocations; the caller must be at a
  /// natural reset point.
  void shrink(std::size_t keep = 0);

 private:
  struct AlignedDeleter {
    void operator()(float* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  using Slab = std::unique_ptr<float[], AlignedDeleter>;

  std::vector<Slab> slabs_;
  std::vector<std::size_t> slab_floats_;
  std::size_t slab_ = 0;    // current slab index
  std::size_t offset_ = 0;  // floats used in current slab
};

/// One affine layer, weights and bias copied once out of the Linear.
class PackedLinear {
 public:
  PackedLinear() = default;
  explicit PackedLinear(const Linear& src);

  [[nodiscard]] std::size_t in_dim() const { return in_; }
  [[nodiscard]] std::size_t out_dim() const { return out_; }
  [[nodiscard]] bool packed() const { return out_ != 0; }
  /// The packed bias row (out_dim() floats) — for callers that fuse this
  /// layer's bias into a multi-operand epilogue (see add2_bias_rows).
  [[nodiscard]] const float* bias() const { return b_.get(); }

  /// y = x W + b for `rows` rows; y borrows from the arena. Bitwise equal
  /// to Linear::forward.
  float* forward_rows(InferenceArena& arena, const float* x,
                      std::size_t rows) const;

  /// y = x W only — the bias is left to the caller's fused epilogue.
  float* forward_rows_nobias(InferenceArena& arena, const float* x,
                             std::size_t rows) const;

 private:
  std::size_t in_ = 0, out_ = 0;
  std::unique_ptr<float[]> w_;  // in x out, row-major (same as Matrix)
  std::unique_ptr<float[]> b_;  // out
};

/// MLP packed for fused inference: per-layer PackedLinear + the hidden
/// activation, applied with the tensor ops' exact scalar formulas.
class PackedMlp {
 public:
  PackedMlp() = default;
  explicit PackedMlp(const Mlp& src);

  [[nodiscard]] bool packed() const { return !layers_.empty(); }
  [[nodiscard]] std::size_t in_dim() const { return layers_.front().in_dim(); }
  [[nodiscard]] std::size_t out_dim() const {
    return layers_.back().out_dim();
  }

  /// rows x out_dim() output in the arena; bitwise equal to Mlp::forward
  /// on the same rows. rows == 0 is a no-op returning a valid (empty)
  /// allocation.
  float* forward_rows(InferenceArena& arena, const float* x,
                      std::size_t rows) const;

 private:
  std::vector<PackedLinear> layers_;
  Activation hidden_ = Activation::kRelu;
};

/// GRU cell packed structure-of-arrays: the three input-gate weight
/// matrices live column-concatenated as [Wxz | Wxr | Wxn] (one matmul
/// per step feeds every gate), the hidden z/r gates as
/// [Whz | Whr]; Whn stays separate because the tensor path multiplies r
/// into h *before* that matmul. Column concatenation never changes a
/// single output element's accumulation order, so gates are bitwise equal
/// to the six per-gate Linear::forward calls.
class PackedGru {
 public:
  PackedGru() = default;
  explicit PackedGru(const GruCell& src);

  [[nodiscard]] bool packed() const { return hidden_ != 0; }
  [[nodiscard]] std::size_t input_dim() const { return in_; }
  [[nodiscard]] std::size_t hidden_dim() const { return hidden_; }

  /// h' for `rows` rows (x: rows x input, h: rows x hidden), borrowed
  /// from the arena; bitwise equal to GruCell::forward.
  float* forward_rows(InferenceArena& arena, const float* x, const float* h,
                      std::size_t rows) const;

 private:
  std::size_t in_ = 0, hidden_ = 0;
  std::unique_ptr<float[]> wx3_;  // in x 3H  [z | r | n]
  std::unique_ptr<float[]> bx3_;  // 3H
  std::unique_ptr<float[]> wh2_;  // H x 2H   [z | r]
  std::unique_ptr<float[]> bh2_;  // 2H
  std::unique_ptr<float[]> whn_;  // H x H
  std::unique_ptr<float[]> bhn_;  // H
};

}  // namespace syn::nn
