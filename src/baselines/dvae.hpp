// D-VAE baseline (Zhang et al., adapted per paper §VII-A).
//
// Variational autoencoder over the same windowed topological sequences as
// GraphRNN: a GRU encoder summarizes the whole DAG into a Gaussian latent
// z, and a GRU decoder conditioned on z predicts each node's incoming
// edges. Like GraphRNN it is DAG-only: cycles are broken for training and
// generation emits forward edges only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"

namespace syn::baselines {

struct DvaeConfig {
  std::size_t window = 12;
  std::size_t hidden = 32;
  std::size_t latent = 8;
  double kl_weight = 0.05;
  int epochs = 15;
  double lr = 2e-3;
  std::uint64_t seed = 3;
};

class Dvae : public core::GeneratorModel {
 public:
  explicit Dvae(DvaeConfig config);

  void fit(const std::vector<graph::Graph>& corpus) override;
  graph::Graph generate(const graph::NodeAttrs& attrs,
                        util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "DVAE"; }

  [[nodiscard]] const std::vector<double>& epoch_losses() const {
    return losses_;
  }

 private:
  DvaeConfig config_;
  util::Rng rng_;
  nn::GruCell encoder_;
  nn::Linear mu_head_, logvar_head_;
  nn::GruCell decoder_;  // input: window step input ⊕ z
  nn::Mlp edge_head_;    // hidden -> window logits
  // Fused-inference copies, packed once at the end of fit() and read-only
  // afterwards (generate_batch calls generate concurrently).
  nn::PackedGru packed_decoder_;
  nn::PackedMlp packed_edge_head_;
  std::vector<double> losses_;
  bool fitted_ = false;
};

}  // namespace syn::baselines
