#include "nn/inference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <new>

namespace syn::nn {

// --- arena -------------------------------------------------------------------

float* InferenceArena::alloc(std::size_t count) {
  if (count == 0) count = 1;  // keep returned pointers valid and distinct
  while (slab_ < slabs_.size()) {
    if (slab_floats_[slab_] - offset_ >= count) {
      float* p = slabs_[slab_].get() + offset_;
      offset_ += count;
      return p;
    }
    ++slab_;
    offset_ = 0;
  }
  const std::size_t want = std::max<std::size_t>(
      count, slabs_.empty() ? 4096 : slab_floats_.back() * 2);
  slabs_.emplace_back(new (std::align_val_t{64}) float[want]);
  slab_floats_.push_back(want);
  slab_ = slabs_.size() - 1;
  offset_ = count;
  return slabs_.back().get();
}

std::size_t InferenceArena::capacity_floats() const {
  std::size_t total = 0;
  for (const std::size_t s : slab_floats_) total += s;
  return total;
}

std::size_t InferenceArena::live_floats() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < slab_ && i < slab_floats_.size(); ++i) {
    total += slab_floats_[i];
  }
  return total + offset_;
}

void InferenceArena::shrink(std::size_t keep) {
  const std::size_t want = std::max<std::size_t>(keep, 4096);
  if (capacity_floats() <= want) {
    reset();
    return;
  }
  slabs_.clear();
  slab_floats_.clear();
  // One right-sized slab, so the next batch of `keep` floats fits without
  // immediately re-growing (which would make shrink pure churn).
  slabs_.emplace_back(new (std::align_val_t{64}) float[want]);
  slab_floats_.push_back(want);
  slab_ = 0;
  offset_ = 0;
}

// --- packed layers -----------------------------------------------------------

PackedLinear::PackedLinear(const Linear& src)
    : in_(src.weight_value().rows()),
      out_(src.weight_value().cols()),
      w_(new float[in_ * out_]),
      b_(new float[out_]) {
  std::copy(src.weight_value().data().begin(), src.weight_value().data().end(),
            w_.get());
  std::copy(src.bias_value().data().begin(), src.bias_value().data().end(),
            b_.get());
}

float* PackedLinear::forward_rows(InferenceArena& arena, const float* x,
                                  std::size_t rows) const {
  assert(packed());
  const SimdKernels& simd = simd_kernels();
  float* y = arena.alloc(rows * out_);
  simd.matmul_rows(x, rows, in_, w_.get(), out_, y);
  simd.bias_rows(y, b_.get(), rows, out_);
  return y;
}

float* PackedLinear::forward_rows_nobias(InferenceArena& arena, const float* x,
                                         std::size_t rows) const {
  assert(packed());
  float* y = arena.alloc(rows * out_);
  simd_kernels().matmul_rows(x, rows, in_, w_.get(), out_, y);
  return y;
}

PackedMlp::PackedMlp(const Mlp& src) : hidden_(src.hidden_activation()) {
  layers_.reserve(src.layers().size());
  for (const Linear& layer : src.layers()) layers_.emplace_back(layer);
}

namespace {

/// In-place hidden activation with the tensor ops' exact float formulas
/// (tensor.cpp relu/sigmoid/tanh_t).
void apply_activation(Activation activation, float* v, std::size_t count) {
  switch (activation) {
    case Activation::kRelu:
      for (std::size_t i = 0; i < count; ++i) v[i] = v[i] > 0.0f ? v[i] : 0.0f;
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < count; ++i) v[i] = std::tanh(v[i]);
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < count; ++i) {
        v[i] = 1.0f / (1.0f + std::exp(-v[i]));
      }
      break;
    case Activation::kNone:
      break;
  }
}

}  // namespace

float* PackedMlp::forward_rows(InferenceArena& arena, const float* x,
                               std::size_t rows) const {
  assert(packed());
  const SimdKernels& simd = simd_kernels();
  const float* cur = x;
  float* y = nullptr;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool hidden = i + 1 < layers_.size();
    if (hidden && hidden_ == Activation::kRelu) {
      // Fused bias+ReLU epilogue on the dispatched tier; same float ops
      // ((y + b) then max with +0) as the separate steps below.
      y = layers_[i].forward_rows_nobias(arena, cur, rows);
      simd.bias_relu_rows(y, layers_[i].bias(), rows, layers_[i].out_dim());
    } else {
      y = layers_[i].forward_rows(arena, cur, rows);
      if (hidden) apply_activation(hidden_, y, rows * layers_[i].out_dim());
    }
    cur = y;
  }
  return y;
}

PackedGru::PackedGru(const GruCell& src)
    : in_(src.xz().weight_value().rows()),
      hidden_(src.xz().weight_value().cols()),
      wx3_(new float[in_ * 3 * hidden_]),
      bx3_(new float[3 * hidden_]),
      wh2_(new float[hidden_ * 2 * hidden_]),
      bh2_(new float[2 * hidden_]),
      whn_(new float[hidden_ * hidden_]),
      bhn_(new float[hidden_]) {
  const std::size_t h = hidden_;
  const auto pack_cols = [](float* dst, std::size_t dst_cols,
                            std::size_t col0, const Matrix& src_m) {
    for (std::size_t k = 0; k < src_m.rows(); ++k) {
      for (std::size_t j = 0; j < src_m.cols(); ++j) {
        dst[k * dst_cols + col0 + j] = src_m.at(k, j);
      }
    }
  };
  pack_cols(wx3_.get(), 3 * h, 0 * h, src.xz().weight_value());
  pack_cols(wx3_.get(), 3 * h, 1 * h, src.xr().weight_value());
  pack_cols(wx3_.get(), 3 * h, 2 * h, src.xn().weight_value());
  pack_cols(bx3_.get(), 3 * h, 0 * h, src.xz().bias_value());
  pack_cols(bx3_.get(), 3 * h, 1 * h, src.xr().bias_value());
  pack_cols(bx3_.get(), 3 * h, 2 * h, src.xn().bias_value());
  pack_cols(wh2_.get(), 2 * h, 0 * h, src.hz().weight_value());
  pack_cols(wh2_.get(), 2 * h, 1 * h, src.hr().weight_value());
  pack_cols(bh2_.get(), 2 * h, 0 * h, src.hz().bias_value());
  pack_cols(bh2_.get(), 2 * h, 1 * h, src.hr().bias_value());
  pack_cols(whn_.get(), h, 0, src.hn().weight_value());
  pack_cols(bhn_.get(), h, 0, src.hn().bias_value());
}

float* PackedGru::forward_rows(InferenceArena& arena, const float* x,
                               const float* h, std::size_t rows) const {
  assert(packed());
  const SimdKernels& simd = simd_kernels();
  const std::size_t hd = hidden_;
  // One SoA matmul per operand feeds every gate it can: x -> [z|r|n],
  // h -> [z|r]. Whn waits for r (the tensor path computes hn(r ⊙ h)).
  float* gx = arena.alloc(rows * 3 * hd);
  simd.matmul_rows(x, rows, in_, wx3_.get(), 3 * hd, gx);
  float* gh = arena.alloc(rows * 2 * hd);
  simd.matmul_rows(h, rows, hd, wh2_.get(), 2 * hd, gh);

  // Pre-activations for both sigmoid gates in one strided epilogue call:
  // the packed [z|r] columns of gx (row stride 3H) and gh (row stride 2H)
  // line up, so zr[row][j] = (gx+bx) + (gh+bh) for j < 2H — exactly the
  // tensor path's sigmoid argument, association included.
  float* zr = arena.alloc(rows * 2 * hd);
  simd.add2_bias_rows(zr, 2 * hd, gx, 3 * hd, bx3_.get(), gh, 2 * hd,
                      bh2_.get(), rows, 2 * hd);

  float* z = arena.alloc(rows * hd);
  float* rh = arena.alloc(rows * hd);
  for (std::size_t row = 0; row < rows; ++row) {
    // The hidden-state walk reads h a row behind the matmul that consumes
    // rh; hint the next row's operands in while this one computes.
    if (row + 1 < rows) {
      prefetch_ro(h + (row + 1) * hd);
      prefetch_ro(zr + (row + 1) * 2 * hd);
    }
    const float* zrr = zr + row * 2 * hd;
    const float* hrow = h + row * hd;
    float* zrow = z + row * hd;
    float* rhrow = rh + row * hd;
    for (std::size_t j = 0; j < hd; ++j) {
      // sigmoid((xW + bx) + (hW + bh)) — the exact tensor expression.
      zrow[j] = 1.0f / (1.0f + std::exp(-zrr[j]));
      const float r = 1.0f / (1.0f + std::exp(-zrr[hd + j]));
      rhrow[j] = r * hrow[j];
    }
  }

  float* ghn = arena.alloc(rows * hd);
  simd.matmul_rows(rh, rows, hd, whn_.get(), hd, ghn);

  // npre[row][j] = (gx_n + bx_n) + (ghn + bhn): the n-gate columns of gx
  // start at offset 2H inside each 3H-stride row.
  float* npre = arena.alloc(rows * hd);
  simd.add2_bias_rows(npre, hd, gx + 2 * hd, 3 * hd, bx3_.get() + 2 * hd, ghn,
                      hd, bhn_.get(), rows, hd);

  float* out = arena.alloc(rows * hd);
  for (std::size_t row = 0; row < rows; ++row) {
    if (row + 1 < rows) {
      prefetch_ro(h + (row + 1) * hd);
      prefetch_ro(npre + (row + 1) * hd);
    }
    const float* nrow = npre + row * hd;
    const float* hrow = h + row * hd;
    const float* zrow = z + row * hd;
    float* orow = out + row * hd;
    for (std::size_t j = 0; j < hd; ++j) {
      const float n = std::tanh(nrow[j]);
      // h' = (n - z ⊙ n) + (z ⊙ h), in the tensor path's exact order.
      orow[j] = (n - zrow[j] * n) + (zrow[j] * hrow[j]);
    }
  }
  return out;
}

}  // namespace syn::nn
