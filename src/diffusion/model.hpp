// Diffusion generative model P(G | V, X) — paper §III/§IV.
//
// Wraps the schedule + denoiser into the two entry points the pipeline
// needs: train() on a corpus of real circuit graphs and sample() to draw
// a new adjacency matrix conditioned on user-specified node attributes,
// returning both G_ini and the edge-probability matrix P_E^(0) that
// Phase 2 consumes. sample_batch() is the production sampler: it draws
// the same bits as sample() but scores a pair only when its uniform
// falls inside the step's posterior range (Schedule::posterior_range).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "diffusion/denoiser.hpp"
#include "diffusion/schedule.hpp"
#include "graph/dcg.hpp"

namespace syn::diffusion {

struct DiffusionConfig {
  int steps = 9;  // T, as in the paper
  DenoiserConfig denoiser;
  int epochs = 20;
  double lr = 2e-3;
  double clip_norm = 5.0;
  /// Negative pairs sampled per positive pair during training (the
  /// re-weighted objective stays unbiased).
  std::size_t negatives_per_positive = 4;
  std::uint64_t seed = 1;
};

/// Result of one reverse-diffusion run: the sampled initial graph
/// adjacency (G_ini) and the model's final edge-probability matrix
/// (P_E at t=0), which guides Phase 2 repair.
struct DiffusionSample {
  graph::AdjacencyMatrix adjacency;
  nn::Matrix edge_prob;  // N x N, edge_prob(i,j) = P(edge i -> j)
};

/// Work done by one sample_batch() call, summed over its chains.
struct SampleStats {
  std::size_t pairs = 0;            // pairs drawn per step
  std::vector<std::size_t> scored;  // scored[t - 1]: pair rows step t decoded
};

class DiffusionModel {
 public:
  explicit DiffusionModel(DiffusionConfig config);

  struct TrainStats {
    std::vector<double> epoch_loss;  // mean BCE per epoch
    double noise_marginal = 0.0;     // estimated stationary edge density
  };

  /// Trains the denoiser on real circuit graphs (x0-parameterized
  /// objective: predict clean edges from corrupted adjacency).
  TrainStats train(const std::vector<graph::Graph>& corpus);

  /// Reverse diffusion conditioned on the node attributes — the reference
  /// scalar path (one tensor-op denoiser forward per step, every pair
  /// scored). Each sample_batch chain is bit-identical to this (asserted
  /// in test_diffusion, and at the production config in test_core);
  /// keeping the implementations separate means the equivalence tests
  /// compare two genuinely different code paths.
  [[nodiscard]] DiffusionSample sample(const graph::NodeAttrs& attrs,
                                       util::Rng& rng) const;

  /// Runs one reverse-diffusion chain per entry, each to the end before
  /// the next starts, on the fused denoiser forward (Denoiser::predict).
  /// Chain k consumes only rngs[k], in exactly the draw order of the
  /// scalar path: one uniform per pair per step, in pair order. Each step
  /// draws its uniforms first; a pair whose uniform falls outside
  /// Schedule::posterior_range is settled without a logit, and only the
  /// rest are decoded. predict() is bitwise equal to encode() + decode(),
  /// so result[k] is bit-identical to sample(attrs[k], rngs[k]) for finite
  /// logits (a NaN logit draws no edge in sample(); here its pair may be
  /// settled by its uniform). The last step decodes every pair: Phase 2
  /// reads all of P_E^(0). attrs and rngs must have equal length; chains
  /// may have different node counts. `stats`, when given, receives the
  /// pairs decoded per step.
  [[nodiscard]] std::vector<DiffusionSample> sample_batch(
      std::span<const graph::NodeAttrs> attrs, std::span<util::Rng> rngs,
      SampleStats* stats = nullptr) const;

  [[nodiscard]] const Schedule& schedule() const { return *schedule_; }
  [[nodiscard]] const DiffusionConfig& config() const { return config_; }
  [[nodiscard]] bool trained() const { return schedule_ != nullptr; }

 private:
  DiffusionConfig config_;
  util::Rng rng_;
  Denoiser denoiser_;
  std::unique_ptr<Schedule> schedule_;  // built at train() (needs density)
};

}  // namespace syn::diffusion
