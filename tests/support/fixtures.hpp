// Shared Phase-3 workload fixtures for the test suites and bench_micro —
// one definition, so the benches, the concurrency determinism tests and
// the mcts tests all measure the same workload.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/generator.hpp"
#include "core/postprocess.hpp"
#include "graph/adjacency.hpp"
#include "graph/algorithms.hpp"
#include "graph/dcg.hpp"
#include "graph/node_type.hpp"
#include "nn/matrix.hpp"
#include "rtl/generators.hpp"
#include "rtl/verilog.hpp"
#include "util/rng.hpp"

namespace syn::testsupport {

/// A deliberately redundant valid circuit: a random repair over
/// corpus-sampled attributes, leaving many unobservable register cones —
/// the canonical Phase 3 input.
inline graph::Graph redundant_circuit(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  core::AttrSampler sampler;
  sampler.fit(rtl::corpus_graphs({.seed = 3}));
  const graph::NodeAttrs attrs = sampler.sample(n, rng);
  graph::AdjacencyMatrix empty(n);
  nn::Matrix probs(n, n);
  for (auto& v : probs.data()) v = static_cast<float>(rng.uniform());
  return core::repair_to_valid(attrs, empty, probs, rng);
}

/// Cheap exact reward: fraction of registers that reach a primary output
/// (unweighted; monotone with the register sweep).
inline double observability_reward(const graph::Graph& g) {
  const auto mask = graph::observable_mask(g);
  std::size_t seen = 0, total = 0;
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    if (graph::is_sequential(g.type(i))) {
      ++total;
      seen += mask[i];
    }
  }
  return total ? static_cast<double>(seen) / static_cast<double>(total) : 0.0;
}

/// FNV-1a of the emitted Verilog, which spells out every node's
/// attributes and fan-ins: equal digests mean equal designs.
inline std::uint64_t verilog_digest(const graph::Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : rtl::to_verilog(g)) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace syn::testsupport
