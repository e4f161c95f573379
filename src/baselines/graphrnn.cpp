#include "baselines/graphrnn.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "baselines/ordering.hpp"
#include "baselines/window_common.hpp"
#include "core/postprocess.hpp"
#include "nn/optim.hpp"

namespace syn::baselines {

using graph::AdjacencyMatrix;
using graph::Graph;
using graph::NodeAttrs;
using nn::Matrix;
using nn::Tensor;

GraphRnn::GraphRnn(GraphRnnConfig config)
    : config_(config),
      rng_(config.seed),
      cell_(window_input_dim(config.window), config.hidden, rng_),
      head_({config.hidden, config.hidden, config.window}, rng_) {}

std::size_t GraphRnn::input_dim() const {
  return window_input_dim(config_.window);
}

void GraphRnn::fit(const std::vector<Graph>& corpus) {
  nn::Adam opt([&] {
    std::vector<Tensor> params;
    cell_.collect_parameters(params);
    head_.collect_parameters(params);
    return params;
  }(), {.lr = config_.lr, .clip_norm = 5.0});

  losses_.clear();
  const std::size_t w = config_.window;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    double epoch_loss = 0.0;
    std::size_t count = 0;
    for (const auto& g : corpus) {
      const WindowSequence seq = build_window_sequence(g, w);
      const std::size_t n = seq.ordered_attrs.size();
      if (n < 2) continue;
      Tensor h(Matrix(1, config_.hidden));
      std::vector<Tensor> step_logits;
      Matrix targets(n, w), weights(n, w);
      std::vector<float> prev(w, 0.0f);
      for (std::size_t k = 0; k < n; ++k) {
        const Matrix x = window_step_input(prev, seq.ordered_attrs.types[k],
                                           seq.ordered_attrs.widths[k], w);
        h = cell_.forward(Tensor(x), h);
        step_logits.push_back(head_.forward(h));
        for (std::size_t d = 0; d < w; ++d) {
          targets.at(k, d) = seq.targets[k][d];
          weights.at(k, d) = d < seq.valid[k] ? 1.0f : 0.0f;
        }
        prev = seq.targets[k];
      }
      // Per-step BCE accumulated (keeps memory proportional to sequence).
      Tensor total;
      for (std::size_t k = 0; k < n; ++k) {
        Matrix t_row(1, w), w_row(1, w);
        for (std::size_t d = 0; d < w; ++d) {
          t_row.at(0, d) = targets.at(k, d);
          w_row.at(0, d) = weights.at(k, d);
        }
        Tensor step = nn::bce_with_logits(step_logits[k], t_row, w_row);
        total = total.defined() ? nn::add(total, step) : step;
      }
      Tensor loss = nn::scale(total, 1.0f / static_cast<float>(n));
      opt.zero_grad();
      loss.backward();
      opt.step();
      epoch_loss += loss.value()[0];
      ++count;
    }
    losses_.push_back(count ? epoch_loss / static_cast<double>(count) : 0.0);
  }
  packed_cell_ = nn::PackedGru(cell_);
  packed_head_ = nn::PackedMlp(head_);
  fitted_ = true;
}

Graph GraphRnn::generate(const NodeAttrs& attrs, util::Rng& rng) {
  if (!fitted_) throw std::logic_error("GraphRnn::generate before fit");
  const std::size_t w = config_.window;
  const auto perm = generation_order(attrs);
  const NodeAttrs ordered = permute_attrs(attrs, perm);
  const std::size_t n = ordered.size();

  AdjacencyMatrix adj(n);
  Matrix edge_prob(n, n);
  // Fused inference path: packed GRU + head through a per-call arena
  // (generate_batch runs generate concurrently — no shared scratch),
  // reset every step so the whole loop reuses one allocation. Bitwise
  // equal to the tensor-path loop (cell_.forward / head_.forward).
  nn::InferenceArena arena;
  std::vector<float> h(config_.hidden, 0.0f);
  std::vector<float> prev(w, 0.0f);
  for (std::size_t k = 0; k < n; ++k) {
    const Matrix x =
        window_step_input(prev, ordered.types[k], ordered.widths[k], w);
    arena.reset();
    const float* h_next =
        packed_cell_.forward_rows(arena, x.data().data(), h.data(), 1);
    const float* logits = packed_head_.forward_rows(arena, h_next, 1);
    std::copy(h_next, h_next + config_.hidden, h.begin());
    std::vector<float> sampled(w, 0.0f);
    for (std::size_t d = 0; d < w && d < k; ++d) {
      const double p = 1.0 / (1.0 + std::exp(-static_cast<double>(logits[d])));
      const std::size_t src = k - 1 - d;
      edge_prob.at(src, k) = static_cast<float>(p);
      if (rng.bernoulli(p)) {
        adj.set(src, k, true);
        sampled[d] = 1.0f;
      }
    }
    prev = sampled;
  }
  // Validity repair in the generation order keeps edges forward-only
  // (acyclic), matching the adapted baseline's behaviour.
  Graph permuted = core::repair_to_valid(ordered, adj, edge_prob, rng);
  return unpermute_graph(permuted, perm, "graphrnn");
}

}  // namespace syn::baselines
