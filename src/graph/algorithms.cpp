#include "graph/algorithms.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace syn::graph {

bool comb_path_exists(const Graph& g, NodeId src, NodeId dst) {
  if (src >= g.num_nodes() || dst >= g.num_nodes()) return false;
  if (is_sequential(g.type(src)) || is_sequential(g.type(dst))) return false;
  // Per-thread scratch, reused across calls: a node is visited in this
  // call iff its stamp equals this call's epoch, so once the buffers have
  // grown to the largest graph seen a call neither clears nor allocates.
  thread_local std::vector<std::uint32_t> stamp;
  thread_local std::vector<NodeId> work;
  thread_local std::uint32_t epoch = 0;
  if (stamp.size() < g.num_nodes()) stamp.resize(g.num_nodes(), 0);
  if (++epoch == 0) {  // wrapped: a stale stamp could equal the new epoch
    std::fill(stamp.begin(), stamp.end(), 0);
    epoch = 1;
  }
  work.clear();
  work.push_back(src);
  stamp[src] = epoch;
  while (!work.empty()) {
    const NodeId n = work.back();
    work.pop_back();
    if (n == dst) return true;
    for (NodeId next : g.fanouts(n)) {
      if (stamp[next] == epoch || is_sequential(g.type(next))) continue;
      stamp[next] = epoch;
      work.push_back(next);
    }
  }
  return false;
}

bool edge_creates_comb_loop(const Graph& g, NodeId parent, NodeId child) {
  if (is_sequential(g.type(parent)) || is_sequential(g.type(child))) {
    return false;
  }
  if (parent == child) return true;
  // The new edge parent -> child closes a loop iff child already reaches
  // parent combinationally.
  return comb_path_exists(g, child, parent);
}

namespace {

/// Iterative three-color DFS over the register-free subgraph.
bool comb_subgraph_has_cycle(const Graph& g) {
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(g.num_nodes(), kWhite);
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (color[start] != kWhite || is_sequential(g.type(start))) continue;
    stack.emplace_back(start, 0);
    color[start] = kGray;
    while (!stack.empty()) {
      auto& [n, idx] = stack.back();
      const auto& outs = g.fanouts(n);
      if (idx < outs.size()) {
        const NodeId next = outs[idx++];
        if (is_sequential(g.type(next))) continue;
        if (color[next] == kGray) return true;
        if (color[next] == kWhite) {
          color[next] = kGray;
          stack.emplace_back(next, 0);
        }
      } else {
        color[n] = kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

}  // namespace

bool has_combinational_loop(const Graph& g) {
  return comb_subgraph_has_cycle(g);
}

std::optional<std::vector<NodeId>> comb_topo_order(const Graph& g) {
  const std::size_t n = g.num_nodes();
  // Kahn's algorithm on combinational dependency edges (parent and child
  // both non-register). Registers/sources have no combinational in-degree.
  std::vector<std::size_t> indeg(n, 0);
  for (NodeId j = 0; j < n; ++j) {
    if (is_sequential(g.type(j))) continue;
    for (NodeId p : g.fanins(j)) {
      if (p != kNoNode && !is_sequential(g.type(p))) ++indeg[j];
    }
  }
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> ready;
  for (NodeId i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(i);
  }
  // Registers first keeps the order usable directly as an evaluation
  // schedule (state, then inputs, then logic).
  std::stable_sort(ready.begin(), ready.end(), [&](NodeId a, NodeId b) {
    return is_sequential(g.type(a)) > is_sequential(g.type(b));
  });
  std::size_t head = 0;
  std::vector<NodeId> queue = std::move(ready);
  while (head < queue.size()) {
    const NodeId cur = queue[head++];
    order.push_back(cur);
    if (is_sequential(g.type(cur))) continue;  // edges out of regs don't gate
    for (NodeId next : g.fanouts(cur)) {
      if (is_sequential(g.type(next))) continue;
      if (--indeg[next] == 0) queue.push_back(next);
    }
  }
  // Nodes never reaching in-degree zero sit on a combinational loop.
  // Fan-outs repeat per slot, so indeg may be decremented more than once
  // for multi-edges; count scheduled nodes instead of comparing indeg.
  if (order.size() != n) return std::nullopt;
  return order;
}

std::optional<std::size_t> longest_comb_depth(const Graph& g) {
  const auto order = comb_topo_order(g);
  if (!order) return std::nullopt;
  if (g.num_nodes() == 0) return 0;
  std::vector<std::size_t> depth(g.num_nodes(), 1);
  std::size_t best = 0;
  for (NodeId n : *order) {
    if (!is_sequential(g.type(n))) {
      for (NodeId p : g.fanins(n)) {
        if (p != kNoNode && !is_sequential(g.type(p))) {
          depth[n] = std::max(depth[n], depth[p] + 1);
        }
      }
    }
    best = std::max(best, depth[n]);
  }
  return best;
}

std::vector<std::uint32_t> strongly_connected_components(const Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> comp(n, 0);
  std::vector<std::uint32_t> index(n, 0), low(n, 0);
  std::vector<bool> on_stack(n, false), visited(n, false);
  std::vector<NodeId> scc_stack;
  std::uint32_t next_index = 1, next_comp = 0;

  // Iterative Tarjan with explicit frames.
  struct Frame {
    NodeId node;
    std::size_t child;
  };
  std::vector<Frame> frames;
  for (NodeId start = 0; start < n; ++start) {
    if (visited[start]) continue;
    frames.push_back({start, 0});
    while (!frames.empty()) {
      auto& f = frames.back();
      const NodeId v = f.node;
      if (f.child == 0) {
        visited[v] = true;
        index[v] = low[v] = next_index++;
        scc_stack.push_back(v);
        on_stack[v] = true;
      }
      const auto& outs = g.fanouts(v);
      if (f.child < outs.size()) {
        const NodeId w = outs[f.child++];
        if (!visited[w]) {
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      } else {
        if (low[v] == index[v]) {
          while (true) {
            const NodeId w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            comp[w] = next_comp;
            if (w == v) break;
          }
          ++next_comp;
        }
        frames.pop_back();
        if (!frames.empty()) {
          const NodeId parent = frames.back().node;
          low[parent] = std::min(low[parent], low[v]);
        }
      }
    }
  }
  return comp;
}

std::vector<NodeId> driving_cone(const Graph& g, NodeId reg) {
  std::vector<NodeId> cone;
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<NodeId> work;
  work.push_back(reg);
  seen[reg] = true;
  while (!work.empty()) {
    const NodeId cur = work.back();
    work.pop_back();
    cone.push_back(cur);
    // Stop at boundary nodes, but always traverse out of the root register
    // itself (its fan-in is the cone content we want).
    if (cur != reg &&
        (is_source(g.type(cur)) || is_sequential(g.type(cur)))) {
      continue;
    }
    for (NodeId p : g.fanins(cur)) {
      if (p == kNoNode || seen[p]) continue;
      seen[p] = true;
      work.push_back(p);
    }
  }
  return cone;
}

std::vector<bool> observable_mask(const Graph& g) {
  std::vector<std::uint64_t> words;
  std::vector<NodeId> work;
  observable_mask(g, words, work);
  std::vector<bool> mask(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) mask[i] = mask_bit(words, i);
  return mask;
}

void observable_mask(const Graph& g, std::vector<std::uint64_t>& words,
                     std::vector<NodeId>& work) {
  words.assign((g.num_nodes() + 63) / 64, 0);
  const auto mark = [&words](NodeId i) {
    words[i / 64] |= std::uint64_t{1} << (i % 64);
  };
  work.clear();
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    if (is_sink(g.type(i))) {
      mark(i);
      work.push_back(i);
    }
  }
  while (!work.empty()) {
    const NodeId cur = work.back();
    work.pop_back();
    for (NodeId p : g.fanins(cur)) {
      if (p == kNoNode || mask_bit(words, p)) continue;
      mark(p);
      work.push_back(p);
    }
  }
}

std::vector<std::size_t> out_degrees(const Graph& g) {
  std::vector<std::size_t> deg(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) deg[i] = g.fanouts(i).size();
  return deg;
}

}  // namespace syn::graph
