#include "baselines/sparsedigress.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/postprocess.hpp"
#include "nn/optim.hpp"

namespace syn::baselines {

using diffusion::Denoiser;
using diffusion::Pair;
using graph::AdjacencyMatrix;
using graph::Graph;
using graph::NodeAttrs;
using nn::Matrix;
using nn::Tensor;

namespace {

AdjacencyMatrix symmetrize(const AdjacencyMatrix& a) {
  AdjacencyMatrix u(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      const bool e = a.at(i, j) || a.at(j, i);
      u.set(i, j, e);
      u.set(j, i, e);
    }
  }
  return u;
}

}  // namespace

SparseDigress::SparseDigress(SparseDigressConfig config)
    : config_(config),
      rng_(config.seed),
      denoiser_({.mpnn_layers = config.mpnn_layers,
                 .hidden = config.hidden,
                 .time_dim = 16,
                 .symmetric_decoder = true},
                rng_) {}

void SparseDigress::fit(const std::vector<Graph>& corpus) {
  gravity_.fit(corpus);
  double density = 0.0;
  for (const auto& g : corpus) {
    const double n = static_cast<double>(g.num_nodes());
    density += static_cast<double>(symmetrize(graph::to_adjacency(g))
                                        .num_edges()) /
               std::max(1.0, n * n);
  }
  schedule_ = std::make_unique<diffusion::Schedule>(
      config_.steps,
      std::clamp(density / static_cast<double>(corpus.size()), 1e-4, 0.5));

  nn::Adam opt(denoiser_.parameters(), {.lr = config_.lr, .clip_norm = 5.0});
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (const auto& g : corpus) {
      const std::size_t n = g.num_nodes();
      if (n < 2 || g.num_edges() == 0) continue;
      const AdjacencyMatrix u0 = symmetrize(graph::to_adjacency(g));
      const Matrix features = Denoiser::node_features(graph::attrs_of(g));
      const int t = 1 + static_cast<int>(rng_.uniform_int(
                            static_cast<std::uint64_t>(config_.steps)));
      // Corrupt one bit per unordered pair, mirror it.
      AdjacencyMatrix ut(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          const bool bit =
              rng_.bernoulli(schedule_->q_t_given_0(t, u0.at(i, j)));
          ut.set(i, j, bit);
          ut.set(j, i, bit);
        }
      }
      std::vector<Pair> pairs;
      for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = i + 1; j < n; ++j) {
          if (u0.at(i, j)) pairs.push_back({i, j});
        }
      }
      const std::size_t positives = pairs.size();
      std::size_t want = positives * config_.negatives_per_positive;
      while (want > 0) {
        const auto i = static_cast<std::uint32_t>(rng_.uniform_int(n));
        const auto j = static_cast<std::uint32_t>(rng_.uniform_int(n));
        if (i == j || u0.at(i, j)) continue;
        pairs.push_back({std::min(i, j), std::max(i, j)});
        --want;
      }
      const double total_neg =
          static_cast<double>(n) * (n - 1) / 2.0 - static_cast<double>(positives);
      Matrix targets(pairs.size(), 1), weights(pairs.size(), 1);
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const bool pos = k < positives;
        targets.at(k, 0) = pos ? 1.0f : 0.0f;
        weights.at(k, 0) =
            pos ? 1.0f
                : static_cast<float>(total_neg /
                                     std::max<double>(
                                         1.0, static_cast<double>(
                                                  pairs.size() - positives)));
      }
      std::vector<std::uint8_t> state(pairs.size());
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        state[k] = ut.at(pairs[k].src, pairs[k].dst) ? 1 : 0;
      }
      const Tensor h =
          denoiser_.encode(features, Denoiser::parent_lists(ut), t);
      Tensor loss = nn::bce_with_logits(denoiser_.decode(h, pairs, state, t),
                                        targets, weights);
      opt.zero_grad();
      loss.backward();
      opt.step();
    }
  }
  // Training mutated the weight tensors; drop any packed snapshot so
  // generate()'s predict() re-packs the fitted values.
  denoiser_.invalidate_packed();
  fitted_ = true;
}

Graph SparseDigress::generate(const NodeAttrs& attrs, util::Rng& rng) {
  if (!fitted_) throw std::logic_error("SparseDigress::generate before fit");
  const std::size_t n = attrs.size();
  const Matrix features = Denoiser::node_features(attrs);

  std::vector<Pair> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.push_back({i, j});
  }
  AdjacencyMatrix ut(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool bit = rng.bernoulli(schedule_->noise_marginal());
      ut.set(i, j, bit);
      ut.set(j, i, bit);
    }
  }
  Matrix uprob(n, n);
  for (int t = schedule_->steps(); t >= 1; --t) {
    std::vector<std::uint8_t> state(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      state[k] = ut.at(pairs[k].src, pairs[k].dst) ? 1 : 0;
    }
    // Fused inference path: predict() runs the packed no-grad denoiser
    // kernels — bitwise equal to encode() + decode() on the tensor path,
    // minus all per-op temporaries.
    const Matrix logits = denoiser_.predict(
        features, Denoiser::parent_lists(ut), pairs, state, t);
    AdjacencyMatrix next(n);
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const auto i = pairs[k].src;
      const auto j = pairs[k].dst;
      const double p0 =
          1.0 / (1.0 + std::exp(-static_cast<double>(logits.data()[k])));
      const double p_prev = schedule_->posterior(t, ut.at(i, j), p0);
      const bool bit = rng.bernoulli(p_prev);
      next.set(i, j, bit);
      next.set(j, i, bit);
      if (t == 1) uprob.at(i, j) = static_cast<float>(p_prev);
    }
    ut = std::move(next);
  }
  const auto oriented = gravity_.orient(attrs, ut, uprob, rng);
  Graph g = core::repair_to_valid(attrs, oriented.adjacency,
                                  oriented.edge_prob, rng);
  g.set_name("sparsedigress");
  return g;
}

}  // namespace syn::baselines
