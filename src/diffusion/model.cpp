#include "diffusion/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/adjacency.hpp"
#include "nn/optim.hpp"

namespace syn::diffusion {

using graph::AdjacencyMatrix;
using graph::NodeAttrs;
using nn::Matrix;
using nn::Tensor;

DiffusionModel::DiffusionModel(DiffusionConfig config)
    : config_(config),
      rng_(config.seed),
      denoiser_(config.denoiser, rng_) {}

namespace {

/// Corrupts a clean adjacency to step t of the forward process.
AdjacencyMatrix corrupt(const AdjacencyMatrix& a0, const Schedule& schedule,
                        int t, util::Rng& rng) {
  const std::size_t n = a0.size();
  AdjacencyMatrix at(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      at.set(i, j, rng.bernoulli(schedule.q_t_given_0(t, a0.at(i, j))));
    }
  }
  return at;
}

}  // namespace

DiffusionModel::TrainStats DiffusionModel::train(
    const std::vector<graph::Graph>& corpus) {
  if (corpus.empty()) throw std::invalid_argument("empty training corpus");
  // Stationary marginal = average edge density of the corpus (marginal-
  // preserving noise keeps generated densities realistic).
  double density_sum = 0.0;
  for (const auto& g : corpus) {
    const double n = static_cast<double>(g.num_nodes());
    density_sum += static_cast<double>(g.num_edges()) / std::max(1.0, n * n);
  }
  const double marginal =
      std::clamp(density_sum / static_cast<double>(corpus.size()), 1e-4, 0.5);
  schedule_ = std::make_unique<Schedule>(config_.steps, marginal);

  nn::Adam opt(denoiser_.parameters(),
               {.lr = config_.lr, .clip_norm = config_.clip_norm});

  TrainStats stats;
  stats.noise_marginal = marginal;
  std::vector<std::size_t> order(corpus.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (const std::size_t gi : order) {
      const auto& g = corpus[gi];
      const std::size_t n = g.num_nodes();
      if (n < 2 || g.num_edges() == 0) continue;
      const AdjacencyMatrix a0 = graph::to_adjacency(g);
      const NodeAttrs attrs = graph::attrs_of(g);
      const Matrix features = Denoiser::node_features(attrs);

      const int t =
          1 + static_cast<int>(rng_.uniform_int(
                  static_cast<std::uint64_t>(config_.steps)));
      const AdjacencyMatrix at = corrupt(a0, *schedule_, t, rng_);

      // Pair batch: every positive, plus re-weighted random negatives.
      std::vector<Pair> pairs;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i != j && a0.at(i, j)) {
            pairs.push_back({static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j)});
          }
        }
      }
      const std::size_t positives = pairs.size();
      const std::size_t negatives = positives * config_.negatives_per_positive;
      std::size_t drawn = 0;
      while (drawn < negatives) {
        const auto i = rng_.uniform_int(n);
        const auto j = rng_.uniform_int(n);
        if (i == j || a0.at(i, j)) continue;
        pairs.push_back(
            {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
        ++drawn;
      }
      const double total_negative_pairs =
          static_cast<double>(n) * static_cast<double>(n - 1) -
          static_cast<double>(positives);
      const float neg_weight =
          negatives > 0 ? static_cast<float>(total_negative_pairs /
                                             static_cast<double>(negatives))
                        : 0.0f;

      Matrix targets(pairs.size(), 1);
      Matrix weights(pairs.size(), 1);
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const bool positive = k < positives;
        targets.at(k, 0) = positive ? 1.0f : 0.0f;
        weights.at(k, 0) = positive ? 1.0f : neg_weight;
      }

      std::vector<std::uint8_t> state(pairs.size());
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        state[k] = at.at(pairs[k].src, pairs[k].dst) ? 1 : 0;
      }
      const Tensor h =
          denoiser_.encode(features, Denoiser::parent_lists(at), t);
      const Tensor logits = denoiser_.decode(h, pairs, state, t);
      Tensor loss = nn::bce_with_logits(logits, targets, weights);
      opt.zero_grad();
      loss.backward();
      opt.step();
      epoch_loss += loss.value()[0];
      ++batches;
    }
    stats.epoch_loss.push_back(batches ? epoch_loss / static_cast<double>(batches)
                                       : 0.0);
  }
  // The optimizer mutated the weight tensors in place; drop any packed
  // snapshot so the next predict() re-packs the trained values.
  denoiser_.invalidate_packed();
  return stats;
}

DiffusionSample DiffusionModel::sample(const NodeAttrs& attrs,
                                       util::Rng& rng) const {
  if (!trained()) throw std::logic_error("DiffusionModel::sample before train");
  const std::size_t n = attrs.size();
  const Matrix features = Denoiser::node_features(attrs);

  // All off-diagonal pairs, scored each step.
  std::vector<Pair> pairs;
  pairs.reserve(n * (n - 1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        pairs.push_back(
            {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
      }
    }
  }

  // A_T ~ stationary noise.
  AdjacencyMatrix at(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) at.set(i, j, rng.bernoulli(schedule_->noise_marginal()));
    }
  }

  Matrix edge_prob(n, n);
  for (int t = schedule_->steps(); t >= 1; --t) {
    std::vector<std::uint8_t> state(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      state[k] = at.at(pairs[k].src, pairs[k].dst) ? 1 : 0;
    }
    const Tensor h = denoiser_.encode(features, Denoiser::parent_lists(at), t);
    const Tensor logits = denoiser_.decode(h, pairs, state, t);
    AdjacencyMatrix next(n);
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const auto i = pairs[k].src;
      const auto j = pairs[k].dst;
      const double p0_hat =
          1.0 / (1.0 + std::exp(-static_cast<double>(logits.value()[k])));
      const double p_prev = schedule_->posterior(t, at.at(i, j), p0_hat);
      next.set(i, j, rng.bernoulli(p_prev));
      if (t == 1) edge_prob.at(i, j) = static_cast<float>(p_prev);
    }
    at = std::move(next);
  }
  return {std::move(at), std::move(edge_prob)};
}

std::vector<DiffusionSample> DiffusionModel::sample_batch(
    std::span<const NodeAttrs> attrs, std::span<util::Rng> rngs,
    SampleStats* stats) const {
  if (!trained()) throw std::logic_error("DiffusionModel::sample before train");
  if (attrs.size() != rngs.size()) {
    throw std::invalid_argument("sample_batch: attrs/rngs size mismatch");
  }
  if (stats != nullptr) {
    stats->pairs = 0;
    stats->scored.assign(static_cast<std::size_t>(schedule_->steps()), 0);
  }

  std::vector<DiffusionSample> out;
  out.reserve(attrs.size());
  for (std::size_t c = 0; c < attrs.size(); ++c) {
    // Chain c runs its whole reverse process before chain c + 1 starts. It
    // touches only rngs[c], in the exact order of the scalar path: A_T
    // first, then one uniform per pair per step, in pair order — lazy
    // decoding changes no draw. A_t is kept as what the denoiser reads:
    // one bit per pair, and each node's parent list. The open_* buffers
    // hold the pairs whose draw this step needs the logit for; they are
    // reused across steps.
    util::Rng& rng = rngs[c];
    const std::size_t n = attrs[c].size();
    const Matrix features = Denoiser::node_features(attrs[c]);
    std::vector<Pair> pairs;
    pairs.reserve(n * (n - 1));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) {
          pairs.push_back(
              {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
        }
      }
    }
    // A_T ~ stationary noise.
    std::vector<std::uint8_t> state(pairs.size());  // A_t per pair
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      state[k] = rng.bernoulli(schedule_->noise_marginal()) ? 1 : 0;
    }
    std::vector<std::uint8_t> next(pairs.size());  // A_{t-1}, being drawn
    std::vector<std::vector<std::size_t>> parents(n);  // parent lists of A_t
    // Refills parents from `state`. Pairs run in (i, j) order, so each
    // list comes out ascending, as Denoiser::parent_lists builds it.
    const auto rebuild_parents = [&] {
      for (auto& p : parents) p.clear();
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        if (state[k] != 0) parents[pairs[k].dst].push_back(pairs[k].src);
      }
    };
    rebuild_parents();
    std::vector<std::size_t> open;         // pair index
    std::vector<Pair> open_pairs;          // its endpoints
    std::vector<std::uint8_t> open_state;  // its A_t bit
    std::vector<double> open_uniform;      // its draw
    open.reserve(pairs.size());
    open_pairs.reserve(pairs.size());
    open_state.reserve(pairs.size());
    open_uniform.reserve(pairs.size());
    Matrix edge_prob(n, n);
    if (stats != nullptr) stats->pairs += pairs.size();

    for (int t = schedule_->steps(); t >= 1; --t) {
      // bernoulli(p) is uniform() < p, and p lies in range[A_t]: a uniform
      // below lo draws an edge and one at or above hi draws none, whatever
      // the logit. The last step scores every pair, since Phase 2 reads all
      // of P_E^(0) (its range covers every uniform anyway).
      const Schedule::PosteriorRange range[2] = {
          schedule_->posterior_range(t, false),
          schedule_->posterior_range(t, true)};
      const bool score_all = t == 1;
      open.clear();
      open_pairs.clear();
      open_state.clear();
      open_uniform.clear();
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const double u = rng.uniform();
        const Schedule::PosteriorRange& r = range[state[k]];
        if (!score_all && (u < r.lo || u >= r.hi)) {
          next[k] = u < r.lo ? 1 : 0;
          continue;
        }
        open.push_back(k);
        open_pairs.push_back(pairs[k]);
        open_state.push_back(state[k]);
        open_uniform.push_back(u);
      }
      if (stats != nullptr) {
        stats->scored[static_cast<std::size_t>(t - 1)] += open.size();
      }
      // The encoder reads all of A_t; the decoder head is row-independent,
      // so each open pair gets the logit a full decode would give it.
      const Matrix logits =
          denoiser_.predict(features, parents, open_pairs, open_state, t);
      for (std::size_t o = 0; o < open.size(); ++o) {
        const double p0_hat =
            1.0 / (1.0 + std::exp(-static_cast<double>(logits.at(o, 0))));
        const double p_prev =
            schedule_->posterior(t, open_state[o] != 0, p0_hat);
        next[open[o]] = open_uniform[o] < p_prev ? 1 : 0;
        if (t == 1) {
          edge_prob.at(open_pairs[o].src, open_pairs[o].dst) =
              static_cast<float>(p_prev);
        }
      }
      state.swap(next);
      rebuild_parents();
    }

    AdjacencyMatrix a0(n);
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      a0.set(pairs[k].src, pairs[k].dst, state[k] != 0);
    }
    out.push_back({std::move(a0), std::move(edge_prob)});
  }
  return out;
}

}  // namespace syn::diffusion
