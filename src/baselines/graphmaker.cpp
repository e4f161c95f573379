#include "baselines/graphmaker.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/postprocess.hpp"
#include "diffusion/denoiser.hpp"
#include "nn/optim.hpp"

namespace syn::baselines {

using diffusion::Denoiser;
using graph::AdjacencyMatrix;
using graph::Graph;
using graph::NodeAttrs;
using nn::Matrix;
using nn::Tensor;

namespace {

/// Pairs scored per scorer forward in generate(). At the default hidden
/// width (32) one block's pair rows and scorer activations (≈ 3*hidden + 1
/// floats per pair) take ~400 KB, well inside L2. Scorer rows are
/// independent and pairs are sampled in (i, j) order, so the block size
/// never changes an output.
constexpr std::size_t kPairBlock = 1024;

}  // namespace

GraphMaker::GraphMaker(GraphMakerConfig config)
    : config_(config),
      rng_(config.seed),
      embed_({Denoiser::feature_dim(), config.hidden, config.hidden}, rng_),
      scorer_({2 * config.hidden, config.hidden, 1}, rng_) {}

Tensor GraphMaker::pair_logits(
    const Tensor& emb,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) const {
  std::vector<std::size_t> a, b;
  a.reserve(pairs.size());
  b.reserve(pairs.size());
  for (const auto& [i, j] : pairs) {
    a.push_back(i);
    b.push_back(j);
  }
  const Tensor ea = nn::gather_rows(emb, std::move(a));
  const Tensor eb = nn::gather_rows(emb, std::move(b));
  // Symmetric in (i, j) by construction: Hadamard product and sum.
  return scorer_.forward(
      nn::concat_cols(nn::mul(ea, eb), nn::add(ea, eb)));
}

void GraphMaker::fit(const std::vector<Graph>& corpus) {
  gravity_.fit(corpus);
  nn::Adam opt([&] {
    std::vector<Tensor> params;
    embed_.collect_parameters(params);
    scorer_.collect_parameters(params);
    return params;
  }(), {.lr = config_.lr, .clip_norm = 5.0});

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (const auto& g : corpus) {
      const std::size_t n = g.num_nodes();
      if (n < 2 || g.num_edges() == 0) continue;
      const AdjacencyMatrix adj = graph::to_adjacency(g);
      const Matrix features =
          Denoiser::node_features(graph::attrs_of(g));
      const Tensor emb = embed_.forward(Tensor(features));

      std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
      std::vector<float> targets;
      for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = i + 1; j < n; ++j) {
          if (adj.at(i, j) || adj.at(j, i)) {
            pairs.emplace_back(i, j);
            targets.push_back(1.0f);
          }
        }
      }
      const std::size_t positives = pairs.size();
      std::size_t want = positives * config_.negatives_per_positive;
      while (want > 0) {
        const auto i = static_cast<std::uint32_t>(rng_.uniform_int(n));
        const auto j = static_cast<std::uint32_t>(rng_.uniform_int(n));
        if (i == j || adj.at(i, j) || adj.at(j, i)) continue;
        pairs.emplace_back(std::min(i, j), std::max(i, j));
        targets.push_back(0.0f);
        --want;
      }
      const double total_neg =
          static_cast<double>(n) * (n - 1) / 2.0 - static_cast<double>(positives);
      const float neg_w = static_cast<float>(
          total_neg / std::max<double>(1.0, static_cast<double>(pairs.size() -
                                                                positives)));
      Matrix t(pairs.size(), 1), w(pairs.size(), 1);
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        t.at(k, 0) = targets[k];
        w.at(k, 0) = k < positives ? 1.0f : neg_w;
      }
      Tensor loss = nn::bce_with_logits(pair_logits(emb, pairs), t, w);
      opt.zero_grad();
      loss.backward();
      opt.step();
    }
  }
  packed_embed_ = nn::PackedMlp(embed_);
  packed_scorer_ = nn::PackedMlp(scorer_);
  fitted_ = true;
}

Graph GraphMaker::generate(const NodeAttrs& attrs, util::Rng& rng) {
  if (!fitted_) throw std::logic_error("GraphMaker::generate before fit");
  const std::size_t n = attrs.size();
  const Matrix features = Denoiser::node_features(attrs);

  // Fused inference path. Embeddings for all n nodes in one packed
  // forward; then the O(n^2) pair sweep runs in blocks of kPairBlock
  // pairs whose scratch is rewound per block (the embedding table stays
  // live below the mark). Pair rows [ea ⊙ eb | ea + eb] are written
  // directly — bitwise identical to gather_rows + mul/add/concat_cols
  // feeding the scorer, whose matmuls are row-independent. Pairs are
  // scored and sampled strictly in (i, j) order, so the rng stream is
  // unchanged.
  const std::size_t hidden = config_.hidden;
  nn::InferenceArena arena;  // per-call: generate_batch shards concurrently
  const float* emb =
      packed_embed_.forward_rows(arena, features.data().data(), n);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }

  AdjacencyMatrix undirected(n);
  Matrix uprob(n, n);
  const nn::InferenceArena::Mark mark = arena.mark();
  for (std::size_t k0 = 0; k0 < pairs.size(); k0 += kPairBlock) {
    const std::size_t k1 = std::min(k0 + kPairBlock, pairs.size());
    arena.rewind(mark);
    float* rows = arena.alloc((k1 - k0) * 2 * hidden);
    for (std::size_t k = k0; k < k1; ++k) {
      // The eb gathers stride through the embedding table (ea repeats,
      // eb jumps); hint a few pairs ahead so the lines arrive before the
      // Hadamard/sum loop needs them.
      if (k + 8 < k1) {
        nn::prefetch_ro(emb + pairs[k + 8].first * hidden);
        nn::prefetch_ro(emb + pairs[k + 8].second * hidden);
      }
      const float* ea = emb + pairs[k].first * hidden;
      const float* eb = emb + pairs[k].second * hidden;
      float* row = rows + (k - k0) * 2 * hidden;
      for (std::size_t c = 0; c < hidden; ++c) {
        row[c] = ea[c] * eb[c];
        row[hidden + c] = ea[c] + eb[c];
      }
    }
    const float* logits = packed_scorer_.forward_rows(arena, rows, k1 - k0);
    for (std::size_t k = k0; k < k1; ++k) {
      const double p =
          1.0 / (1.0 + std::exp(-static_cast<double>(logits[k - k0])));
      const auto [i, j] = pairs[k];
      uprob.at(i, j) = static_cast<float>(p);
      if (rng.bernoulli(p)) undirected.set(i, j, true);
    }
  }
  const auto oriented = gravity_.orient(attrs, undirected, uprob, rng);
  Graph g = core::repair_to_valid(attrs, oriented.adjacency,
                                  oriented.edge_prob, rng);
  g.set_name("graphmaker");
  return g;
}

}  // namespace syn::baselines
