#include "mcts/mcts.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/node_type.hpp"

namespace syn::mcts {

using graph::Graph;
using graph::kNoNode;
using graph::NodeId;

bool apply_swap(Graph& g, const SwapAction& a) {
  if (a.child_a == a.child_b && a.slot_a == a.slot_b) return false;
  const NodeId pa = g.fanin(a.child_a, a.slot_a);
  const NodeId pb = g.fanin(a.child_b, a.slot_b);
  if (pa == kNoNode || pb == kNoNode || pa == pb) return false;
  // Reject duplicate parents after the swap (a parent may feed a child in
  // only one slot, mirroring how Phase 2 assigns fan-ins).
  if (g.has_edge(pb, a.child_a) || g.has_edge(pa, a.child_b)) return false;
  g.clear_fanin(a.child_a, a.slot_a);
  g.clear_fanin(a.child_b, a.slot_b);
  const bool ok = !graph::edge_creates_comb_loop(g, pb, a.child_a) &&
                  [&] {
                    g.set_fanin(a.child_a, a.slot_a, pb);
                    return !graph::edge_creates_comb_loop(g, pa, a.child_b);
                  }();
  if (ok) {
    g.set_fanin(a.child_b, a.slot_b, pa);
    return true;
  }
  // Revert.
  if (g.fanin(a.child_a, a.slot_a) != kNoNode) g.clear_fanin(a.child_a, a.slot_a);
  g.set_fanin(a.child_a, a.slot_a, pa);
  g.set_fanin(a.child_b, a.slot_b, pb);
  return false;
}

double Reward::score(const Graph& g) const {
  return batch_ ? batch_(std::span<const Graph>(&g, 1)).front() : single_(g);
}

namespace {

/// Cone nodes with at least one fan-in slot — the legal swap endpoints.
std::vector<NodeId> swap_candidates(const Graph& g,
                                    const std::vector<NodeId>& cone) {
  std::vector<NodeId> out;
  for (NodeId n : cone) {
    if (!g.fanins(n).empty()) out.push_back(n);
  }
  return out;
}

/// One endpoint targets the cone under optimization; the counterparty may
/// be any fan-in in the circuit — a swap against an edge outside the cone
/// is exactly what reconnects a dead cone into observable logic. When a
/// non-empty `observable_pool` is supplied, half the proposals draw the
/// counterparty from observable logic, which is the move that pulls dead
/// cones into the output fan-in.
SwapAction random_action(const Graph& g, const std::vector<NodeId>& cone_pool,
                         const std::vector<NodeId>& global_pool,
                         const std::vector<NodeId>& observable_pool,
                         util::Rng& rng) {
  SwapAction a;
  a.child_a = cone_pool[rng.uniform_int(cone_pool.size())];
  const bool biased = !observable_pool.empty() && rng.bernoulli(0.5);
  const auto& pool_b = biased ? observable_pool : global_pool;
  a.child_b = pool_b[rng.uniform_int(pool_b.size())];
  a.slot_a = static_cast<int>(rng.uniform_int(g.fanins(a.child_a).size()));
  a.slot_b = static_cast<int>(rng.uniform_int(g.fanins(a.child_b).size()));
  return a;
}

/// Exchanges the parents of the action's two slots without checking
/// validity. On fan-ins a swap is its own inverse, so this both re-applies
/// an action that `apply_swap` accepted on the same state and undoes it.
void exchange_parents(Graph& g, const SwapAction& a) {
  const NodeId pa = g.fanin(a.child_a, a.slot_a);
  const NodeId pb = g.fanin(a.child_b, a.slot_b);
  g.set_fanin(a.child_a, a.slot_a, pb);
  g.set_fanin(a.child_b, a.slot_b, pa);
}

/// A search-tree state, stored as the swap that leads to it from its
/// parent's state; the root is the cone's start graph.
struct TreeNode {
  SwapAction action;
  double reward = 0.0;
  int visits = 0;
  double q_sum = 0.0;
  std::vector<SwapAction> untried;
  std::vector<std::unique_ptr<TreeNode>> children;
};

/// A packed observable mask (graph::observable_mask).
using Mask = std::vector<std::uint64_t>;

struct MaskHash {
  std::size_t operator()(const Mask& words) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::uint64_t w : words) {
      h = (h ^ w) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Scores the states of one optimize_registers call. The working graph's
/// observable mask is computed once per new state (`observe`); seed_actions
/// reads it, and for an observability-keyed reward it is also the key of
/// a memo, so `Reward` runs only for a mask this call has not scored yet.
/// All states of a call are swap-descendants of its input graph, which is
/// what makes the key exact; the memo dies with the call.
class StateScorer {
 public:
  explicit StateScorer(const Reward& reward) : reward_(reward) {}

  [[nodiscard]] bool keyed() const { return reward_.keyed_by_observability(); }

  /// Computes the mask of `g` as it stands now.
  const Mask& observe(const Graph& g) {
    graph::observable_mask(g, mask_, work_);
    return mask_;
  }

  /// The reward of a search state, through Reward::score. For a keyed
  /// reward, `observe` must have seen `g` as it stands.
  double score(const Graph& g) {
    if (!keyed()) return reward_.score(g);
    const auto [it, inserted] = memo_.try_emplace(mask_, 0.0);
    if (inserted) it->second = reward_.score(g);
    return it->second;
  }

 private:
  const Reward& reward_;
  Mask mask_;
  std::vector<NodeId> work_;
  std::unordered_map<Mask, double, MaskHash> memo_;
};

/// Samples the node's candidate actions; `state` is the graph at `node`
/// and `mask` its observable mask.
void seed_actions(TreeNode& node, const Graph& state, const Mask& mask,
                  const std::vector<NodeId>& cone_pool,
                  const std::vector<NodeId>& global_pool,
                  const MctsConfig& config, util::Rng& rng) {
  node.untried.clear();
  if (cone_pool.empty() || global_pool.size() < 2) return;
  // Observable swap counterparties of *this* state (swaps change
  // observability).
  std::vector<NodeId> observable_pool;
  for (NodeId n : global_pool) {
    if (graph::mask_bit(mask, n)) observable_pool.push_back(n);
  }
  for (int k = 0; k < config.actions_per_state; ++k) {
    node.untried.push_back(
        random_action(state, cone_pool, global_pool, observable_pool, rng));
  }
}

/// Searches the driving cone of `reg` with one UCB1 tree and returns the
/// best state found (`start` itself when nothing beats it).
///
/// The tree keeps one working graph. Each simulation walks it from the
/// start state down the selected path by re-applying the stored swaps,
/// expands and rolls out with `apply_swap` on it, scores every new state
/// in place, then undoes its swaps newest first. Only a new best state is
/// copied out.
Graph optimize_cone(const Graph& start, NodeId reg, const MctsConfig& config,
                    StateScorer& scorer, util::Rng& rng) {
  const std::vector<NodeId> cone = graph::driving_cone(start, reg);
  const std::vector<NodeId> cone_pool = swap_candidates(start, cone);
  std::vector<NodeId> all_nodes(start.num_nodes());
  for (NodeId i = 0; i < start.num_nodes(); ++i) all_nodes[i] = i;
  const std::vector<NodeId> global_pool = swap_candidates(start, all_nodes);

  Graph g = start;
  TreeNode root;
  seed_actions(root, g, scorer.observe(g), cone_pool, global_pool, config,
               rng);
  root.reward = scorer.score(g);

  Graph best_state = start;
  double best_reward = root.reward;
  // Scores the working graph's state; a new best is copied out.
  const auto score = [&] {
    const double r = scorer.score(g);
    if (r > best_reward) {
      best_reward = r;
      best_state = g;
    }
    return r;
  };
  std::vector<SwapAction> applied;  // swaps on `g` this simulation, in order

  for (int sim = 0; sim < config.simulations; ++sim) {
    // --- selection ---
    std::vector<TreeNode*> path{&root};
    TreeNode* node = &root;
    int depth = 0;
    while (node->untried.empty() && !node->children.empty() &&
           depth < config.max_depth) {
      constexpr double kExploration = 1.4142135623730951;  // sqrt(2), UCB1
      TreeNode* chosen = nullptr;
      double best_ucb = -1e300;
      for (const auto& child : node->children) {
        const double mean =
            child->visits > 0 ? child->q_sum / child->visits : 0.0;
        const double explore =
            kExploration *
            std::sqrt(std::log(static_cast<double>(node->visits) + 1.0) /
                      (static_cast<double>(child->visits) + 1e-9));
        const double ucb = mean + explore;
        if (ucb > best_ucb) {
          best_ucb = ucb;
          chosen = child.get();
        }
      }
      node = chosen;
      exchange_parents(g, node->action);
      applied.push_back(node->action);
      path.push_back(node);
      ++depth;
    }
    // --- expansion ---
    if (depth < config.max_depth && !node->untried.empty()) {
      const SwapAction action = node->untried.back();
      node->untried.pop_back();
      if (apply_swap(g, action)) {
        applied.push_back(action);
        auto child = std::make_unique<TreeNode>();
        child->action = action;
        seed_actions(*child, g, scorer.observe(g), cone_pool, global_pool,
                     config, rng);
        child->reward = score();
        node->children.push_back(std::move(child));
        node = node->children.back().get();
        path.push_back(node);
        ++depth;
      }
    }
    // --- simulation (random rollout), Reward_max over path and rollout ---
    double reward_max = -std::numeric_limits<double>::infinity();
    for (TreeNode* p : path) reward_max = std::max(reward_max, p->reward);
    for (int d = depth;
         d < config.max_depth && !cone_pool.empty() && global_pool.size() >= 2;
         ++d) {
      const SwapAction action =
          random_action(g, cone_pool, global_pool, {}, rng);
      if (!apply_swap(g, action)) continue;
      applied.push_back(action);
      if (scorer.keyed()) scorer.observe(g);
      reward_max = std::max(reward_max, score());
    }
    // Back to the start state for the next simulation.
    for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
      exchange_parents(g, *it);
    }
    applied.clear();
    // --- backpropagation with Reward_max (paper §VI-B) ---
    for (TreeNode* p : path) {
      ++p->visits;
      p->q_sum += reward_max;
    }
  }
  return best_state;
}

}  // namespace

Graph optimize_registers(const Graph& gval, const MctsConfig& config,
                         const Reward& reward, util::Rng& rng) {
  // Largest driving cones first: they dominate PCS/SCPR.
  std::vector<std::pair<std::size_t, NodeId>> regs;
  for (NodeId i = 0; i < gval.num_nodes(); ++i) {
    if (graph::is_sequential(gval.type(i))) {
      regs.emplace_back(graph::driving_cone(gval, i).size(), i);
    }
  }
  std::sort(regs.begin(), regs.end(), std::greater<>());
  if (config.max_registers >= 0 &&
      regs.size() > static_cast<std::size_t>(config.max_registers)) {
    regs.resize(static_cast<std::size_t>(config.max_registers));
  }
  StateScorer scorer(reward);
  Graph current = gval;
  for (int pass = 0; pass < std::max(1, config.passes); ++pass) {
    for (const auto& [cone_size, reg] : regs) {
      current = optimize_cone(current, reg, config, scorer, rng);
    }
  }
  return current;
}

Graph random_optimize(const Graph& gval, const MctsConfig& config,
                      const Reward& reward, util::Rng& rng) {
  // Same evaluation budget as the MCTS runs it competes with in Fig 4.
  std::vector<NodeId> all_nodes;
  for (NodeId i = 0; i < gval.num_nodes(); ++i) all_nodes.push_back(i);
  const std::vector<NodeId> pool = swap_candidates(gval, all_nodes);
  Graph current = gval;
  Graph best = gval;
  double best_reward = reward.score(gval);
  if (pool.size() < 2) return best;
  for (int sim = 0; sim < config.simulations; ++sim) {
    const SwapAction action = random_action(current, pool, pool, {}, rng);
    if (!apply_swap(current, action)) continue;
    const double r = reward.score(current);
    if (r > best_reward) {
      best_reward = r;
      best = current;
    }
  }
  return best;
}

}  // namespace syn::mcts
