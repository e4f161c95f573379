#include "core/syncircuit.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/validity.hpp"
#include "util/batching.hpp"
#include "util/thread_pool.hpp"

namespace syn::core {

using graph::AdjacencyMatrix;
using graph::Graph;
using graph::NodeAttrs;

SynCircuitGenerator::SynCircuitGenerator(SynCircuitConfig config)
    : config_(config),
      rng_(config.seed),
      diffusion_([&] {
        auto d = config.diffusion;
        d.seed = config.seed ^ 0xd1ffu;
        return d;
      }()),
      discriminator_(config.seed ^ 0xd15cu) {}

void SynCircuitGenerator::fit(const std::vector<Graph>& corpus) {
  if (corpus.empty()) throw std::invalid_argument("SynCircuit: empty corpus");
  attrs_.fit(corpus);

  double density = 0.0;
  for (const auto& g : corpus) {
    const double n = std::max<double>(1.0, static_cast<double>(g.num_nodes()));
    density += static_cast<double>(g.num_edges()) / (n * n);
  }
  corpus_density_ = std::clamp(density / static_cast<double>(corpus.size()),
                               1e-4, 0.5);

  if (config_.use_diffusion) diffusion_.train(corpus);

  if (config_.optimize && config_.use_discriminator) {
    // Discriminator training set: real designs (high PCS), swap-degraded
    // variants, and random-repaired skeletons (low PCS) — spans the PCS
    // range MCTS explores.
    std::vector<Graph> samples;
    for (const auto& g : corpus) {
      samples.push_back(g);
      Graph degraded = g;
      std::vector<graph::NodeId> nodes;
      for (graph::NodeId i = 0; i < degraded.num_nodes(); ++i) {
        if (!degraded.fanins(i).empty()) nodes.push_back(i);
      }
      for (int k = 0; k < 40 && nodes.size() >= 2; ++k) {
        mcts::SwapAction a;
        a.child_a = nodes[rng_.uniform_int(nodes.size())];
        a.child_b = nodes[rng_.uniform_int(nodes.size())];
        a.slot_a = static_cast<int>(
            rng_.uniform_int(degraded.fanins(a.child_a).size()));
        a.slot_b = static_cast<int>(
            rng_.uniform_int(degraded.fanins(a.child_b).size()));
        mcts::apply_swap(degraded, a);
      }
      samples.push_back(std::move(degraded));

      const NodeAttrs attrs = graph::attrs_of(g);
      AdjacencyMatrix random_adj(attrs.size());
      nn::Matrix uniform_prob(attrs.size(), attrs.size());
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        for (std::size_t j = 0; j < attrs.size(); ++j) {
          if (i != j) random_adj.set(i, j, rng_.bernoulli(corpus_density_));
          uniform_prob.at(i, j) = static_cast<float>(rng_.uniform());
        }
      }
      samples.push_back(
          repair_to_valid(attrs, random_adj, uniform_prob, rng_));
    }
    discriminator_.fit(samples);
  }
  fitted_ = true;
}

mcts::Reward SynCircuitGenerator::reward() const {
  // Hybrid: learned PCS (the paper's synthesis-free discriminator) plus an
  // exact observability term so single-swap improvements are visible. The
  // discriminator path carries the fused batch forward, which MCTS uses to
  // score each state (Reward::score).
  return config_.use_discriminator
             ? mcts::hybrid_reward_model(discriminator_)
             : mcts::Reward(mcts::exact_pcs_reward());
}

SynCircuitGenerator::Phases SynCircuitGenerator::run_phases(
    const NodeAttrs& attrs, util::Rng& rng) {
  if (!fitted_) throw std::logic_error("SynCircuit: generate before fit");
  const std::size_t n = attrs.size();

  // --- Phase 1: initial sample + edge probabilities ---
  AdjacencyMatrix gini(n);
  nn::Matrix edge_prob(n, n);
  if (config_.use_diffusion) {
    auto sample = diffusion_.sample(attrs, rng);
    gini = std::move(sample.adjacency);
    edge_prob = std::move(sample.edge_prob);
  } else {
    // Ablation ("SynCircuit w/o diff"): random edges at corpus density,
    // uniform-random probabilities for the repair ranking.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) gini.set(i, j, rng.bernoulli(corpus_density_));
        edge_prob.at(i, j) = static_cast<float>(rng.uniform());
      }
    }
  }

  // --- Phase 2: probability-guided repair ---
  Phases out{std::move(gini), Graph{}, Graph{}, {}};
  out.gval = repair_to_valid(attrs, out.gini, edge_prob, rng, &out.repair);

  // --- Phase 3: MCTS redundancy optimization ---
  out.gopt = config_.optimize
                 ? mcts::optimize_registers(out.gval, config_.mcts, reward(),
                                            rng)
                 : out.gval;
  return out;
}

Graph SynCircuitGenerator::generate(const NodeAttrs& attrs, util::Rng& rng) {
  Phases phases = run_phases(attrs, rng);
  Graph result = std::move(phases.gopt);
  result.set_name("syncircuit");
  return result;
}

std::vector<Graph> SynCircuitGenerator::generate_batch(
    std::span<const NodeAttrs> attrs_list, std::span<const std::uint64_t> seeds,
    const GenerateBatchOptions& options) {
  if (!fitted_) throw std::logic_error("SynCircuit: generate before fit");
  if (attrs_list.size() != seeds.size()) {
    throw std::invalid_argument("generate_batch: attrs/seeds size mismatch");
  }
  const std::size_t count = attrs_list.size();
  std::vector<Graph> out(count);
  if (count == 0) return out;

  // Chunk layout up front; boundaries never influence results because
  // every item owns the whole RNG stream Rng(seeds[i]) — chunking only
  // decides which items share a packed Phase 1 forward.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  util::for_each_chunk(count, options.batch,
                       [&](std::size_t lo, std::size_t n) {
                         chunks.emplace_back(lo, n);
                       });

  const mcts::Reward reward_model = reward();
  const auto run_chunk = [&](std::size_t lo, std::size_t n) {
    std::vector<util::Rng> rngs;
    rngs.reserve(n);
    for (std::size_t k = 0; k < n; ++k) rngs.emplace_back(seeds[lo + k]);

    // Phase 1, whole chunk: n lockstep reverse chains, one packed
    // denoiser forward per step.
    std::vector<diffusion::DiffusionSample> phase1;
    if (config_.use_diffusion) {
      phase1 = diffusion_.sample_batch(attrs_list.subspan(lo, n), rngs);
    }

    // Phases 2–3 per item, continuing the item's RNG where Phase 1 left
    // it — exactly the scalar run_phases sequence.
    for (std::size_t k = 0; k < n; ++k) {
      const NodeAttrs& attrs = attrs_list[lo + k];
      const std::size_t num = attrs.size();
      AdjacencyMatrix gini(num);
      nn::Matrix edge_prob(num, num);
      if (config_.use_diffusion) {
        gini = std::move(phase1[k].adjacency);
        edge_prob = std::move(phase1[k].edge_prob);
      } else {
        for (std::size_t i = 0; i < num; ++i) {
          for (std::size_t j = 0; j < num; ++j) {
            if (i != j) gini.set(i, j, rngs[k].bernoulli(corpus_density_));
            edge_prob.at(i, j) = static_cast<float>(rngs[k].uniform());
          }
        }
      }
      Graph gval = repair_to_valid(attrs, gini, edge_prob, rngs[k]);
      Graph gopt = config_.optimize
                       ? mcts::optimize_registers(gval, config_.mcts,
                                                  reward_model, rngs[k])
                       : std::move(gval);
      gopt.set_name("syncircuit");
      out[lo + k] = std::move(gopt);
    }
  };

  if (options.threads > 1 && chunks.size() > 1) {
    util::ThreadPool pool(static_cast<std::size_t>(options.threads));
    pool.parallel_for(chunks.size(), [&](std::size_t c) {
      run_chunk(chunks[c].first, chunks[c].second);
    });
  } else {
    for (const auto& [lo, n] : chunks) run_chunk(lo, n);
  }
  return out;
}

Graph SynCircuitGenerator::optimize_only(const Graph& gval,
                                         util::Rng& rng) const {
  if (!fitted_) throw std::logic_error("SynCircuit: optimize before fit");
  return mcts::optimize_registers(gval, config_.mcts, reward(), rng);
}

std::string SynCircuitGenerator::name() const {
  std::string n = "SynCircuit";
  n += config_.use_diffusion ? " w/ diff" : " w/o diff";
  if (!config_.optimize) n += " w/o opt";
  return n;
}

}  // namespace syn::core
