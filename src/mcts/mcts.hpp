// Phase 3 — MCTS-based refinement of circuit redundancy (paper §VI).
//
// The atomic action swaps the parents of two fan-in slots, which preserves
// every node's in- and out-degree (paper §VI-B "action space"). A tree
// node stores the swap that leads to it from its parent, not a graph:
// each tree keeps one working copy of the cone's start graph, re-applies
// the stored swaps to walk down the selected path, expands and rolls out
// by applying swaps to that same graph, scores every state in place and
// undoes the simulation's swaps before the next one. A graph is copied
// only when a state beats the best reward so far. Swaps reorder fan-out
// lists, so nothing on the search path may depend on that order; every
// consumer reads fan-in slots, fan-out counts or reachability.
//
// Search is UCB1-guided; simulation reward is the *maximum* state reward
// seen along the path, and backpropagation updates Q with that maximum
// (the paper's modification for identifying the best intermediate state
// rather than a terminal one). The reward is PCS — post-synthesis area
// per pre-synthesis node — supplied as a callback so the exact synthesis
// oracle and the learned discriminator are interchangeable.
//
// Every state of a search descends from its input by swaps, which move no
// node type, width or fan-out count. A reward that reads nothing else but
// the observable mask (the production hybrid reward) declares so
// (Reward::observability_keyed), and optimize_registers then scores each
// distinct mask once: it computes every new state's mask, packed, and
// looks the score up in a memo that lives for that one call.
//
// Each register cone gets one tree (paper §VI), driven by the caller's RNG
// stream; cones are searched one after another, each from the best state
// found so far. Concurrency lives a level up: dataset jobs generate
// independent designs on a thread pool (core::GeneratorModel).
#pragma once

#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/dcg.hpp"
#include "util/rng.hpp"

namespace syn::mcts {

struct MctsConfig {
  int simulations = 500;  // paper: 500 per register cone
  int max_depth = 10;     // paper: 10
  int actions_per_state = 12;  // candidate swaps sampled per tree node
  /// Optimize at most this many register cones (-1 = all), largest
  /// driving cones first.
  int max_registers = -1;
  /// Rounds over the register list; each cone search starts from the best
  /// state found so far, so improvements accumulate beyond one tree depth.
  int passes = 2;
};

/// Swap the parents currently driving (child_a, slot_a) and
/// (child_b, slot_b).
struct SwapAction {
  graph::NodeId child_a = graph::kNoNode;
  int slot_a = 0;
  graph::NodeId child_b = graph::kNoNode;
  int slot_b = 0;
};

/// Applies the swap if it keeps the circuit valid (no combinational loop,
/// no duplicate parent, no degenerate self-swap); returns false and leaves
/// every fan-in slot untouched otherwise. Either way the order within
/// fan-out lists may change.
bool apply_swap(graph::Graph& g, const SwapAction& action);

/// State evaluation callback (PCS; larger is better).
using RewardFn = std::function<double(const graph::Graph&)>;
/// Batched evaluation: one reward per input graph, in order.
using BatchRewardFn =
    std::function<std::vector<double>(std::span<const graph::Graph>)>;

/// A reward with an optional batched fast path. Single-argument callables
/// convert implicitly, so plain RewardFn lambdas keep working; rewards
/// backed by the learned discriminator also supply a `batch` function on
/// the fused inference path. The batch path must agree with the scalar
/// path bitwise (row-independent matmuls make this exact for the
/// discriminator), so which one scores a state never changes a result.
class Reward {
 public:
  Reward() = default;
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Reward> &&
                std::is_invocable_r_v<double, F, const graph::Graph&>>>
  Reward(F single) : single_(std::move(single)) {}  // NOLINT(runtime/explicit)
  Reward(RewardFn single, BatchRewardFn batch)
      : single_(std::move(single)), batch_(std::move(batch)) {}

  /// A reward that declares itself a pure function of a state's observable
  /// mask (graph::observable_mask) among the swap-descendants of one
  /// graph: two such states with equal masks get bitwise-equal rewards.
  /// optimize_registers then scores each distinct mask once per call.
  /// Only declare it for a reward that reads nothing else a swap moves.
  static Reward observability_keyed(RewardFn single, BatchRewardFn batch) {
    Reward r(std::move(single), std::move(batch));
    r.keyed_by_observability_ = true;
    return r;
  }

  double operator()(const graph::Graph& g) const { return single_(g); }

  /// The reward of one search state: the batch function over a span of
  /// one when there is one (the fused path), else the scalar function.
  [[nodiscard]] double score(const graph::Graph& g) const;

  [[nodiscard]] bool keyed_by_observability() const {
    return keyed_by_observability_;
  }

 private:
  RewardFn single_;
  BatchRewardFn batch_;
  bool keyed_by_observability_ = false;
};

/// Full Phase 3: one UCB1 tree per register cone, cones optimized one by
/// one (paper §VI-A), each starting from the best state found so far. For
/// an observability-keyed reward the call keeps a memo from observable
/// mask to reward, so a state whose mask the call has already scored is
/// not scored again; the result is the same as without the memo.
graph::Graph optimize_registers(const graph::Graph& gval,
                                const MctsConfig& config,
                                const Reward& reward, util::Rng& rng);

/// Ablation baseline (Fig 4): a random walk of valid swaps with the same
/// simulation budget, keeping the best state encountered.
graph::Graph random_optimize(const graph::Graph& gval,
                             const MctsConfig& config, const Reward& reward,
                             util::Rng& rng);

}  // namespace syn::mcts
