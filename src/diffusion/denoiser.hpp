// Denoising network ϕθ — paper §IV-C (encoder) and §IV-D (decoder).
//
// Encoder: directed message-passing network. Node states are initialized
// from the node attributes X (one-hot type + width feature) combined with
// an MLP time embedding, then updated through L layers of
//     H^{l+1}_j = ReLU(W_h H^l_j + mean_{i in P(j)} W_m H^l_i),
// where P(j) are the parents of j in the *noisy* graph A_t.
//
// Decoder: asymmetric translated-embedding scorer
//     p(A_{t-1}(i,j) = 1) = MLP(((H_i + r(t)) ⊙ H_j) ⊕ d(t)),
// with learnable relation embedding r(t) = MLP_r(enc(t)) and time
// embedding d(t) = MLP_d(enc(t)). The translation makes the score
// direction-sensitive; a symmetric dot-product variant is provided for the
// ablation bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/adjacency.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"

namespace syn::diffusion {

struct DenoiserConfig {
  int mpnn_layers = 5;       // paper: 5
  std::size_t hidden = 64;   // paper: 256 (scaled down for CPU)
  std::size_t time_dim = 16;
  bool symmetric_decoder = false;  // ablation: drop the r(t) translation
};

/// Node-pair whose edge probability is queried.
struct Pair {
  std::uint32_t src;
  std::uint32_t dst;
};

class Denoiser : public nn::Module {
 public:
  Denoiser(DenoiserConfig config, util::Rng& rng);

  /// Encodes all nodes of the noisy graph at step t.
  /// parents[j] lists the parents of node j in A_t. In- and out-degrees of
  /// the noisy graph are appended to the attribute features internally.
  [[nodiscard]] nn::Tensor encode(
      const nn::Matrix& node_features,
      const std::vector<std::vector<std::size_t>>& parents, int t) const;

  /// Scores the requested pairs given encoder output; returns P x 1 logits.
  /// `current_state[k]` is A_t(i, j) for pairs[k] — the denoiser predicts
  /// the clean bit *conditioned on the noisy bit* (x0-parameterization).
  [[nodiscard]] nn::Tensor decode(const nn::Tensor& h,
                                  const std::vector<Pair>& pairs,
                                  const std::vector<std::uint8_t>& current_state,
                                  int t) const;

  /// Fused inference forward of one graph: the P x 1 logits of
  /// decode(encode(node_features, parents, t), pairs, current_state, t),
  /// bitwise equal to them, computed on the packed weights and the
  /// dispatched SIMD kernels without autograd or tensor temporaries.
  /// `pairs` may be any subset of the node pairs, in any order, or empty.
  [[nodiscard]] nn::Matrix predict(
      const nn::Matrix& node_features,
      const std::vector<std::vector<std::size_t>>& parents,
      const std::vector<Pair>& pairs,
      const std::vector<std::uint8_t>& current_state, int t) const;

  void collect_parameters(std::vector<nn::Tensor>& out) const override;

  /// Drops the cached packed weights; call after a training step mutates
  /// the parameters so the next predict() re-packs fresh values.
  /// In-flight predict() calls keep their shared_ptr snapshot.
  void invalidate_packed();

  [[nodiscard]] const DenoiserConfig& config() const { return config_; }

  /// Feature dimension expected by encode(): one-hot type + width feature
  /// + constant bias feature.
  static std::size_t feature_dim();
  /// Builds the N x feature_dim() attribute matrix for a node set.
  static nn::Matrix node_features(const graph::NodeAttrs& attrs);
  /// Parent lists of an adjacency matrix (diagonal ignored).
  static std::vector<std::vector<std::size_t>> parent_lists(
      const graph::AdjacencyMatrix& adj);

 private:
  /// The denoiser's weights in the shared fused-inference layout
  /// (nn/inference.hpp) — predict() runs entirely on
  /// PackedMlp/PackedLinear + the dispatched SIMD kernels, the same code
  /// path every other model uses.
  struct PackedWeights {
    nn::PackedMlp init;                 // attrs -> hidden (2 layers)
    std::vector<nn::PackedLinear> wh;   // per-layer self transform
    std::vector<nn::PackedLinear> wm;   // per-layer message transform
    nn::PackedMlp head;                 // pair row -> logit (2 layers)
  };

  /// Lazily packs (and caches) the current weights. Thread-safe: sampling
  /// threads share one Denoiser, so the cache is built under a mutex and
  /// handed out as a shared_ptr snapshot.
  [[nodiscard]] std::shared_ptr<const PackedWeights> packed_weights() const;

  DenoiserConfig config_;
  mutable std::shared_ptr<const PackedWeights> packed_;
  // unique_ptr keeps Denoiser movable (a std::mutex member would not).
  std::unique_ptr<std::mutex> packed_mutex_;
  nn::Mlp init_;                 // attrs -> hidden
  nn::Mlp time_init_;            // enc(t) -> hidden (added to init)
  std::vector<nn::Linear> wh_;   // self transform per layer
  std::vector<nn::Linear> wm_;   // message transform per layer
  nn::Mlp relation_;             // enc(t) -> hidden, the r(t) embedding
  nn::Mlp dtime_;                // enc(t) -> time_dim, the d(t) embedding
  nn::Mlp head_;                 // hidden + time_dim -> 1 logit
};

}  // namespace syn::diffusion
