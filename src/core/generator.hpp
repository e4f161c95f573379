// Common interface for all circuit generative models (SynCircuit and the
// four baselines), so the evaluation harness treats them uniformly.
//
// The contract is batch-first: `generate_batch` is the primary entry
// point for dataset production, and the scalar `generate` is the one
// method a backend must implement. The default `generate_batch` shards
// the scalar path across a `util::ThreadPool`, so every backend gets
// parallel batched generation for free. All five registered backends
// use it; the method stays virtual so a wrapper (an instrumented model,
// say) can substitute its own batch loop under the same per-item RNG
// contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/adjacency.hpp"
#include "graph/dcg.hpp"
#include "util/rng.hpp"

namespace syn::core {

/// Knobs of the batched generation driver. Neither changes results —
/// batch and thread count are pure throughput levers: item i of any
/// generate_batch call is driven entirely by its own util::Rng seeded
/// with seeds[i].
struct GenerateBatchOptions {
  /// Items grouped per chunk: the work unit handed to each pool task.
  /// The dataset service also sizes its default producer group from it
  /// (batch × threads designs per generate_batch call and checkpoint).
  /// <= 1 degrades to per-item chunks.
  std::size_t batch = 8;
  /// util::ThreadPool shards running whole chunks concurrently (<= 1
  /// runs chunks inline on the caller).
  int threads = 1;
};

class GeneratorModel {
 public:
  virtual ~GeneratorModel() = default;

  /// Learns P(G | V, X) from real circuit graphs.
  virtual void fit(const std::vector<graph::Graph>& corpus) = 0;

  /// Generates one valid synthetic circuit conditioned on node attributes.
  ///
  /// Thread-safety contract: after fit() returns, generate() must be safe
  /// to call concurrently from multiple threads (model state is read-only
  /// during generation; all randomness comes from the caller's rng). The
  /// default generate_batch relies on this to shard items across a pool.
  virtual graph::Graph generate(const graph::NodeAttrs& attrs,
                                util::Rng& rng) = 0;

  /// Batched, sharded generation: one circuit per attrs entry. Item i is
  /// driven entirely by its own util::Rng seeded with seeds[i], so
  /// result[i] is bit-identical to generate(attrs_list[i],
  /// util::Rng(seeds[i])) — at any batch size and any thread count.
  ///
  /// The default implementation chunks items by options.batch and runs
  /// the scalar generate() per item, sharding whole chunks across a
  /// util::ThreadPool when options.threads > 1. An override must keep the
  /// same per-item RNG contract.
  [[nodiscard]] virtual std::vector<graph::Graph> generate_batch(
      std::span<const graph::NodeAttrs> attrs_list,
      std::span<const std::uint64_t> seeds,
      const GenerateBatchOptions& options = {});

  /// Convenience overload: per-item seeds from util::split_streams(seed,
  /// attrs_list.size()) — the same splitmix64 streams the dataset service
  /// checkpoints.
  [[nodiscard]] std::vector<graph::Graph> generate_batch(
      std::span<const graph::NodeAttrs> attrs_list, std::uint64_t seed,
      const GenerateBatchOptions& options = {});

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Empirical (type, width) sampler fitted on a corpus; used to draw the
/// conditioning attributes X when the user only specifies a node count V
/// (paper §II: "use the P(X) distribution from the real design or set it
/// according to the user's specifications").
class AttrSampler {
 public:
  void fit(const std::vector<graph::Graph>& corpus);

  /// Draws `num_nodes` attributes. Guarantees the sample is usable as a
  /// circuit skeleton: at least one input, one output and one register —
  /// which needs num_nodes >= 4 (three forced roles whose random patch
  /// positions may collide once); smaller requests throw
  /// std::invalid_argument before consuming any randomness.
  [[nodiscard]] graph::NodeAttrs sample(std::size_t num_nodes,
                                        util::Rng& rng) const;

  [[nodiscard]] bool fitted() const { return !pool_.empty(); }

 private:
  // Empirical joint distribution, stored as the flattened pool of observed
  // (type, width) pairs.
  std::vector<std::pair<graph::NodeType, std::uint16_t>> pool_;
};

}  // namespace syn::core
