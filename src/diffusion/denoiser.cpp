#include "diffusion/denoiser.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/inference.hpp"

namespace syn::diffusion {

using graph::kNumNodeTypes;
using nn::Matrix;
using nn::Tensor;

Denoiser::Denoiser(DenoiserConfig config, util::Rng& rng)
    : config_(config),
      packed_mutex_(std::make_unique<std::mutex>()),
      init_({feature_dim() + 2, config.hidden, config.hidden}, rng),
      time_init_({config.time_dim, config.hidden}, rng),
      relation_({config.time_dim, config.hidden}, rng),
      dtime_({config.time_dim, config.time_dim}, rng),
      head_({config.hidden + config.time_dim + 1, config.hidden, 1}, rng) {
  for (int l = 0; l < config.mpnn_layers; ++l) {
    wh_.emplace_back(config.hidden, config.hidden, rng);
    wm_.emplace_back(config.hidden, config.hidden, rng);
  }
}

std::size_t Denoiser::feature_dim() {
  return static_cast<std::size_t>(kNumNodeTypes) + 2;
}

Matrix Denoiser::node_features(const graph::NodeAttrs& attrs) {
  Matrix f(attrs.size(), feature_dim());
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    f.at(i, static_cast<std::size_t>(attrs.types[i])) = 1.0f;
    f.at(i, kNumNodeTypes) =
        static_cast<float>(std::log2(1.0 + attrs.widths[i]) / 6.0);
    f.at(i, kNumNodeTypes + 1) = 1.0f;  // bias feature
  }
  return f;
}

std::vector<std::vector<std::size_t>> Denoiser::parent_lists(
    const graph::AdjacencyMatrix& adj) {
  const std::size_t n = adj.size();
  std::vector<std::vector<std::size_t>> parents(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i != j && adj.at(i, j)) parents[j].push_back(i);
    }
  }
  return parents;
}

namespace {

/// Pair rows the decoder builds and scores at a time: a 128 x 49 tile
/// (25 KB at the production shape) and its 128 x 32 head activations
/// stay cache-resident.
constexpr std::size_t kDecodeTileRows = 128;

/// Attribute features augmented with the noisy graph's normalized in- and
/// out-degree — cheap structural summaries of A_t.
Matrix augment_features(const Matrix& node_features,
                        const std::vector<std::vector<std::size_t>>& parents) {
  const std::size_t n = node_features.rows();
  std::vector<float> out_degree(n, 0.0f);
  for (const auto& plist : parents) {
    for (std::size_t p : plist) out_degree[p] += 1.0f;
  }
  Matrix augmented(n, node_features.cols() + 2);
  const float norm = 1.0f / static_cast<float>(std::max<std::size_t>(n, 1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < node_features.cols(); ++j) {
      augmented.at(i, j) = node_features.at(i, j);
    }
    augmented.at(i, node_features.cols()) =
        static_cast<float>(parents[i].size()) * norm * 8.0f;
    augmented.at(i, node_features.cols() + 1) = out_degree[i] * norm * 8.0f;
  }
  return augmented;
}

}  // namespace

Tensor Denoiser::encode(
    const Matrix& node_features,
    const std::vector<std::vector<std::size_t>>& parents, int t) const {
  const std::size_t n = node_features.rows();
  const Tensor x(augment_features(node_features, parents));
  const Tensor t_emb =
      time_init_.forward(Tensor(nn::timestep_encoding(t, config_.time_dim)));
  // Initial state: attribute embedding + broadcast time embedding.
  Tensor h = nn::relu(nn::add(init_.forward(x), t_emb));
  for (int l = 0; l < config_.mpnn_layers; ++l) {
    const Tensor msg = nn::aggregate_rows(h, parents, n);
    h = nn::relu(nn::add(wh_[static_cast<std::size_t>(l)].forward(h),
                         wm_[static_cast<std::size_t>(l)].forward(msg)));
  }
  return h;
}

Tensor Denoiser::decode(const Tensor& h, const std::vector<Pair>& pairs,
                        const std::vector<std::uint8_t>& current_state,
                        int t) const {
  std::vector<std::size_t> src, dst;
  src.reserve(pairs.size());
  dst.reserve(pairs.size());
  for (const auto& p : pairs) {
    src.push_back(p.src);
    dst.push_back(p.dst);
  }
  const Tensor hi = nn::gather_rows(h, std::move(src));
  const Tensor hj = nn::gather_rows(h, std::move(dst));
  const Tensor enc_t(nn::timestep_encoding(t, config_.time_dim));
  Tensor translated = hi;
  if (!config_.symmetric_decoder) {
    // (H_i + r(t)): the translation that encodes edge direction.
    const Tensor r = relation_.forward(enc_t);  // 1 x hidden, broadcasts
    translated = nn::add(hi, r);
  }
  const Tensor prod = nn::mul(translated, hj);
  // Broadcast d(t) to every pair row via a zero matrix.
  const Tensor d = dtime_.forward(enc_t);  // 1 x time_dim
  const Tensor d_rows =
      nn::add(Tensor(Matrix(pairs.size(), config_.time_dim)), d);
  // Current noisy bit A_t(i, j): the denoiser predicts the clean bit
  // conditioned on the corrupted one.
  Matrix state(pairs.size(), 1);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    state.at(k, 0) = current_state[k] ? 1.0f : 0.0f;
  }
  return head_.forward(
      nn::concat_cols(nn::concat_cols(prod, d_rows), Tensor(state)));
}

std::shared_ptr<const Denoiser::PackedWeights> Denoiser::packed_weights()
    const {
  std::lock_guard<std::mutex> lock(*packed_mutex_);
  if (!packed_) {
    auto pw = std::make_shared<PackedWeights>();
    pw->init = nn::PackedMlp(init_);
    pw->head = nn::PackedMlp(head_);
    pw->wh.reserve(wh_.size());
    pw->wm.reserve(wm_.size());
    for (const nn::Linear& l : wh_) pw->wh.emplace_back(l);
    for (const nn::Linear& l : wm_) pw->wm.emplace_back(l);
    packed_ = std::move(pw);
  }
  return packed_;
}

void Denoiser::invalidate_packed() {
  std::lock_guard<std::mutex> lock(*packed_mutex_);
  packed_.reset();
}

Matrix Denoiser::predict(const Matrix& node_features,
                         const std::vector<std::vector<std::size_t>>& parents,
                         const std::vector<Pair>& pairs,
                         const std::vector<std::uint8_t>& current_state,
                         int t) const {
  // Sampling never backpropagates: drop autograd bookkeeping for the whole
  // forward (values are unaffected).
  const nn::NoGradGuard no_grad;
  const Matrix augmented = augment_features(node_features, parents);
  const std::size_t n = augmented.rows();

  // One inference code path: the node rows run through the shared
  // PackedMlp/PackedLinear kernels (nn/inference.hpp) on the dispatched
  // SIMD tier — the same engine every other model uses. Weights are
  // packed lazily and cached until invalidate_packed().
  const std::shared_ptr<const PackedWeights> pw = packed_weights();
  const nn::SimdKernels& simd = nn::simd_kernels();
  const std::size_t hidden = config_.hidden;

  thread_local nn::InferenceArena arena;
  arena.reset();

  // Encoder. The 1-row time embedding goes through the tensor path (tiny,
  // and its arithmetic stays trivially identical to encode()'s).
  const Matrix t_emb =
      time_init_.forward(Tensor(nn::timestep_encoding(t, config_.time_dim)))
          .value();  // 1 x hidden
  // init_ MLP, then the broadcast time embedding folds in as a second
  // "bias" row with the outer ReLU fused: relu((init(x) + b1) + t_emb) —
  // encode()'s exact association.
  float* h = pw->init.forward_rows(arena, augmented.data().data(), n);
  simd.bias_relu_rows(h, t_emb.data().data(), n, hidden);

  // Message-passing layers: mean-aggregate parents (axpy accumulates
  // value * inv per term in group order — exactly nn::aggregate_rows),
  // two affine maps, then the fused two-operand bias + ReLU epilogue.
  float* msg = arena.alloc(n * hidden);
  for (int l = 0; l < config_.mpnn_layers; ++l) {
    std::fill(msg, msg + n * hidden, 0.0f);
    for (std::size_t g = 0; g < n; ++g) {
      if (parents[g].empty()) continue;
      const float inv = 1.0f / static_cast<float>(parents[g].size());
      float* mrow = msg + g * hidden;
      for (const std::size_t src : parents[g]) {
        simd.axpy(mrow, h + src * hidden, inv, hidden);
      }
    }
    const auto& lh = pw->wh[static_cast<std::size_t>(l)];
    const auto& lm = pw->wm[static_cast<std::size_t>(l)];
    const auto mark = arena.mark();
    const float* mmh = lh.forward_rows_nobias(arena, h, n);
    const float* mmm = lm.forward_rows_nobias(arena, msg, n);
    // h = relu((h W_h + b_h) + (msg W_m + b_m)), written back in place —
    // both matmuls have consumed h by this point.
    simd.add2_bias_relu_rows(h, hidden, mmh, hidden, lh.bias(), mmm, hidden,
                             lm.bias(), n, hidden);
    arena.rewind(mark);
  }

  // Decoder: pair rows [ (H_i (+ r)) ⊙ H_j | 0 + d | A_t bit ] — the same
  // expressions the mul/add-broadcast/concat tensor ops evaluate per
  // row — built and scored kDecodeTileRows at a time, so one tile of
  // rows and its head activations stay in L1 instead of streaming every
  // pair through memory. The head is row-independent, so tiling changes
  // no logit.
  const Tensor enc_t(nn::timestep_encoding(t, config_.time_dim));
  Matrix r_emb;
  if (!config_.symmetric_decoder) r_emb = relation_.forward(enc_t).value();
  const Matrix d = dtime_.forward(enc_t).value();
  const std::size_t time_dim = config_.time_dim;
  // H_i + r(t) depends on the node alone: translate each node row once,
  // with the same float add the per-pair expression would do.
  const float* h_src = h;
  if (!config_.symmetric_decoder) {
    const float* rrow = r_emb.data().data();
    float* translated = arena.alloc(n * hidden);
    for (std::size_t g = 0; g < n; ++g) {
      for (std::size_t j = 0; j < hidden; ++j) {
        translated[g * hidden + j] = h[g * hidden + j] + rrow[j];
      }
    }
    h_src = translated;
  }
  // The d(t) columns are the same in every row: 0 + d, exactly what
  // add(zeros, d) computes.
  float* d_cols = arena.alloc(time_dim);
  for (std::size_t j = 0; j < time_dim; ++j) d_cols[j] = 0.0f + d[j];
  const std::size_t in_dim = hidden + time_dim + 1;
  Matrix logits(pairs.size(), 1);
  float* tile = arena.alloc(kDecodeTileRows * in_dim);
  std::size_t filled = 0;  // rows built in the current tile
  std::size_t scored = 0;  // logits written so far
  const auto score_tile = [&] {
    const auto mark = arena.mark();
    const float* out = pw->head.forward_rows(arena, tile, filled);
    std::copy(out, out + filled, logits.data().data() + scored);
    arena.rewind(mark);
    scored += filled;
    filled = 0;
  };
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    if (k + 1 < pairs.size()) {
      // The H gathers jump around the node rows; hint the next pair's
      // rows in while this one's row is built.
      nn::prefetch_ro(h_src + pairs[k + 1].src * hidden);
      nn::prefetch_ro(h + pairs[k + 1].dst * hidden);
    }
    float* row_out = tile + filled * in_dim;
    const float* hi = h_src + pairs[k].src * hidden;
    const float* hj = h + pairs[k].dst * hidden;
    for (std::size_t j = 0; j < hidden; ++j) row_out[j] = hi[j] * hj[j];
    std::copy(d_cols, d_cols + time_dim, row_out + hidden);
    row_out[hidden + time_dim] = current_state[k] ? 1.0f : 0.0f;
    if (++filled == kDecodeTileRows) score_tile();
  }
  if (filled != 0) score_tile();
  return logits;
}

void Denoiser::collect_parameters(std::vector<nn::Tensor>& out) const {
  init_.collect_parameters(out);
  time_init_.collect_parameters(out);
  for (const auto& l : wh_) l.collect_parameters(out);
  for (const auto& l : wm_) l.collect_parameters(out);
  relation_.collect_parameters(out);
  dtime_.collect_parameters(out);
  head_.collect_parameters(out);
}

}  // namespace syn::diffusion
