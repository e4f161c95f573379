#include "mcts/discriminator.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/node_type.hpp"
#include "nn/optim.hpp"
#include "synth/synthesizer.hpp"

namespace syn::mcts {

using graph::Graph;
using graph::NodeId;
using graph::NodeType;

namespace {

/// Packed observable mask of `g` in this thread's reused buffers: scoring
/// a state allocates nothing once they have grown to the largest graph
/// seen.
const std::vector<std::uint64_t>& thread_observable_mask(const Graph& g) {
  thread_local std::vector<std::uint64_t> words;
  thread_local std::vector<NodeId> work;
  graph::observable_mask(g, words, work);
  return words;
}

/// observable_register_fraction's arithmetic on a computed mask.
double register_fraction(const Graph& g,
                         const std::vector<std::uint64_t>& mask) {
  double seen = 0.0, total = 0.0;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    if (!graph::is_sequential(g.type(i))) continue;
    const double w = g.width(i);
    total += w;
    if (graph::mask_bit(mask, i)) seen += w;
  }
  return total > 0.0 ? seen / total : 0.0;
}

/// Writes pcs_features(g) to f[0, kPcsFeatureDim) and returns
/// observable_register_fraction(g), both from one observable mask.
///
/// Every feature reads only the mask and what a fan-in swap cannot move
/// (node types and widths, fan-out counts, the edge count), so on the
/// swap-descendants of one graph the features, and the hybrid reward built
/// on them, are a function of the mask alone: Phase 3's score memo relies
/// on it (Reward::observability_keyed).
double features_and_observability(const Graph& g, double* f) {
  const double n = std::max<std::size_t>(g.num_nodes(), 1);
  const std::vector<std::uint64_t>& mask = thread_observable_mask(g);

  std::size_t observable = 0;
  std::size_t observable_regs = 0, regs = 0;
  std::size_t observable_width = 0, total_width = 0;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    const bool seen = graph::mask_bit(mask, i);
    observable += seen;
    total_width += static_cast<std::size_t>(g.width(i));
    if (seen) observable_width += static_cast<std::size_t>(g.width(i));
    if (graph::is_sequential(g.type(i))) {
      ++regs;
      observable_regs += seen;
    }
  }
  std::size_t d = 0;  // next feature slot
  f[d++] = static_cast<double>(observable) / n;
  f[d++] = regs ? static_cast<double>(observable_regs) / regs : 0.0;
  f[d++] = total_width ? static_cast<double>(observable_width) / total_width
                       : 0.0;

  double mean_deg = 0.0, max_deg = 0.0, zero_fanout = 0.0;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    const std::size_t deg = g.fanouts(i).size();
    mean_deg += static_cast<double>(deg);
    max_deg = std::max(max_deg, static_cast<double>(deg));
    zero_fanout += deg == 0;
  }
  f[d++] = mean_deg / n;
  f[d++] = max_deg / n;
  f[d++] = zero_fanout / n;
  f[d++] = static_cast<double>(g.num_edges()) / n;

  // Observable arithmetic mass drives area: multiplier bits squared etc.
  double mul_mass = 0.0, add_mass = 0.0, mux_mass = 0.0;
  std::size_t hist[graph::kNumNodeTypes] = {};
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    ++hist[static_cast<std::size_t>(g.type(i))];
    if (!graph::mask_bit(mask, i)) continue;
    const double w = g.width(i);
    if (g.type(i) == NodeType::kMul) mul_mass += w * w;
    if (g.type(i) == NodeType::kAdd || g.type(i) == NodeType::kSub) {
      add_mass += w;
    }
    if (g.type(i) == NodeType::kMux) mux_mass += w;
  }
  f[d++] = mul_mass / n;
  f[d++] = add_mass / n;
  f[d++] = mux_mass / n;

  // The type mix fills the remaining slots; types past the last slot are
  // not features.
  for (std::size_t t = 0; t < std::size(hist) && d < kPcsFeatureDim; ++t) {
    f[d++] = static_cast<double>(hist[t]) / n;
  }
  // Pad defensively if the node-type vocabulary ever shrinks.
  while (d < kPcsFeatureDim) f[d++] = 0.0;

  return register_fraction(g, mask);
}

}  // namespace

std::vector<double> pcs_features(const Graph& g) {
  std::vector<double> f(kPcsFeatureDim);
  features_and_observability(g, f.data());
  return f;
}

PcsDiscriminator::PcsDiscriminator(std::uint64_t seed)
    : rng_(seed),
      net_({kPcsFeatureDim, 32, 16, 1}, rng_),
      mean_(kPcsFeatureDim, 0.0),
      stddev_(kPcsFeatureDim, 1.0) {}

void PcsDiscriminator::fit(const std::vector<Graph>& samples, int epochs) {
  if (samples.empty()) {
    throw std::invalid_argument("PcsDiscriminator: no training samples");
  }
  const std::size_t n = samples.size();
  std::vector<std::vector<double>> feats(n);
  std::vector<double> labels(n);
  double max_label = 1e-9;
  for (std::size_t i = 0; i < n; ++i) {
    feats[i] = pcs_features(samples[i]);
    labels[i] = synth::synthesize_stats(samples[i]).pcs();
    max_label = std::max(max_label, labels[i]);
  }
  label_scale_ = max_label;

  for (std::size_t j = 0; j < kPcsFeatureDim; ++j) {
    double m = 0.0;
    for (const auto& f : feats) m += f[j];
    m /= static_cast<double>(n);
    double var = 0.0;
    for (const auto& f : feats) var += (f[j] - m) * (f[j] - m);
    mean_[j] = m;
    stddev_[j] = std::sqrt(var / static_cast<double>(n)) + 1e-6;
  }

  nn::Matrix x(n, kPcsFeatureDim);
  nn::Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < kPcsFeatureDim; ++j) {
      x.at(i, j) = static_cast<float>((feats[i][j] - mean_[j]) / stddev_[j]);
    }
    y.at(i, 0) = static_cast<float>(labels[i] / label_scale_);
  }
  nn::Adam opt(net_.parameters(), {.lr = 5e-3, .clip_norm = 5.0});
  const nn::Tensor xt(x);
  for (int e = 0; e < epochs; ++e) {
    opt.zero_grad();
    nn::Tensor loss = nn::mse(net_.forward(xt), y);
    loss.backward();
    opt.step();
  }
  // Pack the trained weights once for the fused score_batch path; the
  // packed copy is read-only afterwards, so concurrent scoring (dataset
  // jobs generate designs on a thread pool) needs no synchronization.
  packed_ = nn::PackedMlp(net_);
  fitted_ = true;
}

double PcsDiscriminator::predict(const Graph& g) const {
  if (!fitted_) throw std::logic_error("PcsDiscriminator::predict before fit");
  const nn::NoGradGuard no_grad;  // scoring never backpropagates
  const auto f = pcs_features(g);
  nn::Matrix x(1, kPcsFeatureDim);
  for (std::size_t j = 0; j < kPcsFeatureDim; ++j) {
    x.at(0, j) = static_cast<float>((f[j] - mean_[j]) / stddev_[j]);
  }
  return static_cast<double>(net_.forward(nn::Tensor(x)).value()[0]) *
         label_scale_;
}

std::vector<double> PcsDiscriminator::score_batch(
    std::span<const Graph> gs) const {
  return score_rows(gs, nullptr);
}

std::vector<double> PcsDiscriminator::score_batch(
    std::span<const Graph> gs, std::span<double> observable) const {
  if (observable.size() != gs.size()) {
    throw std::invalid_argument(
        "PcsDiscriminator::score_batch: observable/graph count mismatch");
  }
  return score_rows(gs, observable.data());
}

std::vector<double> PcsDiscriminator::score_rows(std::span<const Graph> gs,
                                                 double* observable) const {
  if (!fitted_) {
    throw std::logic_error("PcsDiscriminator::score_batch before fit");
  }
  if (gs.empty()) return {};
  // Fused inference path: feature rows go straight into an arena buffer
  // and through the packed MLP — no per-op tensor temporaries. One arena
  // per thread (scoring runs concurrently under batched MCTS).
  thread_local nn::InferenceArena arena;
  arena.reset();
  float* x = arena.alloc(gs.size() * kPcsFeatureDim);
  for (std::size_t i = 0; i < gs.size(); ++i) {
    double f[kPcsFeatureDim];
    const double fraction = features_and_observability(gs[i], f);
    if (observable != nullptr) observable[i] = fraction;
    float* row = x + i * kPcsFeatureDim;
    for (std::size_t j = 0; j < kPcsFeatureDim; ++j) {
      row[j] = static_cast<float>((f[j] - mean_[j]) / stddev_[j]);
    }
  }
  const float* out = packed_.forward_rows(arena, x, gs.size());
  std::vector<double> scores(gs.size());
  for (std::size_t i = 0; i < gs.size(); ++i) {
    scores[i] = static_cast<double>(out[i]) * label_scale_;
  }
  // The thread_local arena otherwise holds its high-water mark forever;
  // after an unusually large batch, follow the workload back down once the
  // live set is ≤ 1/4 of capacity.
  const std::size_t used = arena.live_floats();
  if (used * 4 <= arena.capacity_floats()) arena.shrink(used);
  return scores;
}

RewardFn PcsDiscriminator::as_reward() const {
  if (!fitted_) throw std::logic_error("PcsDiscriminator::as_reward before fit");
  return [this](const Graph& g) { return predict(g); };
}

RewardFn exact_pcs_reward() {
  return [](const Graph& g) { return synth::synthesize_stats(g).pcs(); };
}

double observable_register_fraction(const Graph& g) {
  return register_fraction(g, thread_observable_mask(g));
}

RewardFn hybrid_reward(const PcsDiscriminator& discriminator, double bonus) {
  if (!discriminator.fitted()) {
    throw std::logic_error("hybrid_reward: discriminator not fitted");
  }
  const double scale = std::max(discriminator.label_scale(), 1e-9);
  return [&discriminator, bonus, scale](const Graph& g) {
    const double learned =
        std::clamp(discriminator.predict(g) / scale, 0.0, 1.0);
    return bonus * observable_register_fraction(g) + learned;
  };
}

Reward hybrid_reward_model(const PcsDiscriminator& discriminator,
                           double bonus) {
  // The batch path must mirror hybrid_reward's arithmetic exactly —
  // same clamp, same term order — so batched MCTS is bit-identical to
  // unbatched.
  RewardFn single = hybrid_reward(discriminator, bonus);
  const double scale = std::max(discriminator.label_scale(), 1e-9);
  BatchRewardFn batch = [&discriminator, bonus,
                         scale](std::span<const Graph> gs) {
    // One observable mask per state feeds both terms: `out` first
    // receives each state's observable_register_fraction.
    std::vector<double> out(gs.size());
    const std::vector<double> raw = discriminator.score_batch(gs, out);
    for (std::size_t i = 0; i < gs.size(); ++i) {
      const double learned = std::clamp(raw[i] / scale, 0.0, 1.0);
      out[i] = bonus * out[i] + learned;
    }
    return out;
  };
  // Both terms read only what pcs_features reads, which is a function of
  // the observable mask on one graph's swap-descendants.
  return Reward::observability_keyed(std::move(single), std::move(batch));
}

}  // namespace syn::mcts
