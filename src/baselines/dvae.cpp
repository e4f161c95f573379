#include "baselines/dvae.hpp"

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

Dvae::Dvae(DvaeConfig config)
    : config_(config),
      rng_(config.seed),
      encoder_(window_input_dim(config.window), config.hidden, rng_),
      mu_head_(config.hidden, config.latent, rng_),
      logvar_head_(config.hidden, config.latent, rng_),
      decoder_(window_input_dim(config.window) + config.latent, config.hidden,
               rng_),
      edge_head_({config.hidden, config.hidden, config.window}, rng_) {}

void Dvae::fit(const std::vector<Graph>& corpus) {
  nn::Adam opt([&] {
    std::vector<Tensor> params;
    encoder_.collect_parameters(params);
    mu_head_.collect_parameters(params);
    logvar_head_.collect_parameters(params);
    decoder_.collect_parameters(params);
    edge_head_.collect_parameters(params);
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

      // --- encode the full sequence ---
      Tensor h_enc(Matrix(1, config_.hidden));
      std::vector<float> prev(w, 0.0f);
      for (std::size_t k = 0; k < n; ++k) {
        const Matrix x = window_step_input(prev, seq.ordered_attrs.types[k],
                                           seq.ordered_attrs.widths[k], w);
        h_enc = encoder_.forward(Tensor(x), h_enc);
        prev = seq.targets[k];
      }
      const Tensor mu = mu_head_.forward(h_enc);
      const Tensor logvar = logvar_head_.forward(h_enc);
      // Reparameterization: z = mu + eps ⊙ exp(logvar / 2).
      Matrix eps(1, config_.latent);
      for (auto& v : eps.data()) v = static_cast<float>(rng_.gaussian());
      const Tensor z =
          nn::add(mu, nn::mul(Tensor(eps), nn::exp_t(nn::scale(logvar, 0.5f))));

      // --- decode ---
      Tensor h_dec(Matrix(1, config_.hidden));
      prev.assign(w, 0.0f);
      Tensor recon;
      for (std::size_t k = 0; k < n; ++k) {
        const Matrix x = window_step_input(prev, seq.ordered_attrs.types[k],
                                           seq.ordered_attrs.widths[k], w);
        h_dec = decoder_.forward(nn::concat_cols(Tensor(x), z), h_dec);
        const Tensor logits = edge_head_.forward(h_dec);
        Matrix t_row(1, w), w_row(1, w);
        for (std::size_t d = 0; d < w; ++d) {
          t_row.at(0, d) = seq.targets[k][d];
          w_row.at(0, d) = d < seq.valid[k] ? 1.0f : 0.0f;
        }
        const Tensor step = nn::bce_with_logits(logits, t_row, w_row);
        recon = recon.defined() ? nn::add(recon, step) : step;
        prev = seq.targets[k];
      }
      recon = nn::scale(recon, 1.0f / static_cast<float>(n));

      // KL(q(z|G) || N(0, I)) = -0.5 mean(1 + logvar - mu^2 - exp(logvar)).
      const Tensor kl_inner = nn::sub(
          nn::add(Tensor(Matrix(1, config_.latent, 1.0f)), logvar),
          nn::add(nn::mul(mu, mu), nn::exp_t(logvar)));
      const Tensor kl = nn::scale(nn::mean_all(kl_inner), -0.5f);
      Tensor loss =
          nn::add(recon, nn::scale(kl, static_cast<float>(config_.kl_weight)));

      opt.zero_grad();
      loss.backward();
      opt.step();
      epoch_loss += loss.value()[0];
      ++count;
    }
    losses_.push_back(count ? epoch_loss / static_cast<double>(count) : 0.0);
  }
  packed_decoder_ = nn::PackedGru(decoder_);
  packed_edge_head_ = nn::PackedMlp(edge_head_);
  fitted_ = true;
}

Graph Dvae::generate(const NodeAttrs& attrs, util::Rng& rng) {
  if (!fitted_) throw std::logic_error("Dvae::generate before fit");
  const std::size_t w = config_.window;
  const auto perm = generation_order(attrs);
  const NodeAttrs ordered = permute_attrs(attrs, perm);
  const std::size_t n = ordered.size();

  // Prior sample (drawn before the loop so the rng stream is unchanged).
  Matrix z_val(1, config_.latent);
  for (auto& v : z_val.data()) v = static_cast<float>(rng.gaussian());

  AdjacencyMatrix adj(n);
  Matrix edge_prob(n, n);
  // Fused inference path: the decoder input row [x | z] is written
  // directly (bitwise identical to concat_cols feeding the matmul), then
  // packed GRU + edge head run through a per-call arena reset each step.
  const std::size_t in_dim = window_input_dim(w);
  nn::InferenceArena arena;
  std::vector<float> xz(in_dim + config_.latent);
  std::copy(z_val.data().begin(), z_val.data().end(), xz.begin() + in_dim);
  std::vector<float> h(config_.hidden, 0.0f);
  std::vector<float> prev(w, 0.0f);
  for (std::size_t k = 0; k < n; ++k) {
    const Matrix x =
        window_step_input(prev, ordered.types[k], ordered.widths[k], w);
    std::copy(x.data().begin(), x.data().end(), xz.begin());
    arena.reset();
    const float* h_next =
        packed_decoder_.forward_rows(arena, xz.data(), h.data(), 1);
    const float* logits = packed_edge_head_.forward_rows(arena, h_next, 1);
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
  Graph permuted = core::repair_to_valid(ordered, adj, edge_prob, rng);
  return unpermute_graph(permuted, perm, "dvae");
}

}  // namespace syn::baselines
