// Learned PCS discriminator (paper §VII-A: "we replaced the slow synthesis
// tool with a trained discriminator to approximate the PCS").
//
// A small MLP regresses PCS from cheap O(N + E) structural features
// (observability fractions, degree statistics, type mix). During MCTS it
// replaces the synthesis oracle, cutting the per-state cost from a full
// bit-blast + optimize to a graph sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/dcg.hpp"
#include "mcts/mcts.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"

namespace syn::mcts {

/// Feature vector for a circuit graph (see discriminator.cpp for the
/// exact definition; dimension = kPcsFeatureDim).
inline constexpr std::size_t kPcsFeatureDim = 24;
std::vector<double> pcs_features(const graph::Graph& g);

class PcsDiscriminator {
 public:
  explicit PcsDiscriminator(std::uint64_t seed = 17);

  /// Fits on training graphs; PCS labels are produced internally by the
  /// exact synthesis oracle.
  void fit(const std::vector<graph::Graph>& samples, int epochs = 300);

  [[nodiscard]] double predict(const graph::Graph& g) const;

  /// Batched prediction on the fused inference path: one packed-MLP
  /// forward over all graphs (one feature row each) through a
  /// thread-local arena — no per-op tensor temporaries. Row i performs
  /// exactly the per-graph `predict` arithmetic (the fused kernels are
  /// bitwise-equal to the tensor path and matmuls are row-independent),
  /// so `score_batch(gs)[i] == predict(gs[i])` bitwise; mixed graph sizes
  /// are fine (features are fixed-dimension) and an empty span yields an
  /// empty vector. `predict` stays on the tensor path as the reference.
  [[nodiscard]] std::vector<double> score_batch(
      std::span<const graph::Graph> gs) const;

  /// score_batch that also writes observable_register_fraction(gs[i]) to
  /// observable[i], from the one observable mask the features already
  /// need — the hybrid reward's path. `observable` must have gs.size()
  /// entries (else std::invalid_argument); both outputs are bitwise those
  /// of the separate calls.
  [[nodiscard]] std::vector<double> score_batch(
      std::span<const graph::Graph> gs, std::span<double> observable) const;

  [[nodiscard]] bool fitted() const { return fitted_; }
  /// Largest PCS label seen in training; used to normalize predictions.
  [[nodiscard]] double label_scale() const { return label_scale_; }

  /// Adapts the discriminator to the MCTS reward interface.
  [[nodiscard]] RewardFn as_reward() const;

 private:
  /// Both score_batch overloads; `observable` may be null.
  [[nodiscard]] std::vector<double> score_rows(
      std::span<const graph::Graph> gs, double* observable) const;

  util::Rng rng_;
  nn::Mlp net_;
  nn::PackedMlp packed_;  // built once per fit(); read-only afterwards
  std::vector<double> mean_, stddev_;  // feature normalization
  double label_scale_ = 1.0;
  bool fitted_ = false;
};

/// Exact synthesis-based PCS reward (the oracle the discriminator mimics).
RewardFn exact_pcs_reward();

/// Fraction of register bits that reach a primary output — an exact O(E)
/// proxy for the register-sweep component of SCPR/PCS.
double observable_register_fraction(const graph::Graph& g);

/// Default Phase 3 reward: `bonus` times the exact observability fraction
/// plus the *normalized* learned PCS estimate. The observability term
/// dominates (it is exact and monotone with the register sweep); the
/// learned term carries the area signal the paper's discriminator
/// provides and breaks ties between equally-observable states.
RewardFn hybrid_reward(const PcsDiscriminator& discriminator,
                       double bonus = 10.0);

/// `hybrid_reward` packaged with a batched path built on `score_batch`:
/// the reward model MCTS uses. Scalar and batched paths agree bitwise.
/// Both terms are functions of the observable mask on one graph's
/// swap-descendants, so the reward is declared observability-keyed and
/// optimize_registers scores each distinct mask once.
Reward hybrid_reward_model(const PcsDiscriminator& discriminator,
                           double bonus = 10.0);

}  // namespace syn::mcts
