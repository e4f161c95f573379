#include "core/syncircuit.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/adjacency.hpp"

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
    // One chain on the fused inference path: bit-identical to sample().
    auto phase1 = diffusion_.sample_batch({&attrs, 1}, {&rng, 1});
    gini = std::move(phase1[0].adjacency);
    edge_prob = std::move(phase1[0].edge_prob);
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
  Graph result = std::move(run_phases(attrs, rng).gopt);
  result.set_name("syncircuit");
  return result;
}

std::string SynCircuitGenerator::name() const {
  std::string n = "SynCircuit";
  n += config_.use_diffusion ? " w/ diff" : " w/o diff";
  if (!config_.optimize) n += " w/o opt";
  return n;
}

}  // namespace syn::core
