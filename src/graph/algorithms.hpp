// Graph algorithms used across the pipeline: combinational-cycle analysis
// (constraint C2), evaluation ordering for the synthesis substrate,
// driving-cone extraction for the MCTS optimizer (paper §VI), and
// observability for the register sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/dcg.hpp"

namespace syn::graph {

/// True if a path exists from src to dst visiting only non-register nodes
/// (src and dst included). Used to veto edges that would close a
/// combinational loop: adding edge dst -> src is illegal iff this is true.
bool comb_path_exists(const Graph& g, NodeId src, NodeId dst);

/// True if adding the edge parent -> child would create a combinational
/// loop (a cycle with no register on it).
bool edge_creates_comb_loop(const Graph& g, NodeId parent, NodeId child);

/// True if the graph already contains a combinational loop.
bool has_combinational_loop(const Graph& g);

/// Topological order of the combinational dependency DAG: nodes sorted so
/// every non-register parent of a non-register node precedes it. Register,
/// input and const nodes appear first (their outputs are available before
/// combinational evaluation). Returns nullopt if a combinational loop
/// exists. Unconnected fan-in slots are ignored.
std::optional<std::vector<NodeId>> comb_topo_order(const Graph& g);

/// Length (in nodes) of the longest combinational path; 0 for an empty
/// graph, nullopt if a combinational loop exists.
std::optional<std::size_t> longest_comb_depth(const Graph& g);

/// Strongly connected components of the full directed graph (Tarjan).
/// Returns per-node component ids, components numbered in reverse
/// topological order of the condensation.
std::vector<std::uint32_t> strongly_connected_components(const Graph& g);

/// Driving cone of a register (paper §VI, footnote 3): reverse BFS from the
/// register through fan-ins, stopping at (and including) const, input and
/// other register nodes. The register itself is included.
std::vector<NodeId> driving_cone(const Graph& g, NodeId reg);

/// Per-node flag: true if the node can reach some output port through
/// fan-out edges (i.e. it is observable and survives a dead-logic sweep).
std::vector<bool> observable_mask(const Graph& g);

/// The same mask packed into caller-owned 64-bit words: node i's flag is
/// bit i % 64 of words[i / 64], and bits past the node count are 0.
/// `words` is resized to ceil(N / 64) and `work` is the traversal stack,
/// so a caller that masks many graphs allocates only when one outgrows
/// them. Two graphs with the same node count have the same mask iff their
/// words compare equal.
void observable_mask(const Graph& g, std::vector<std::uint64_t>& words,
                     std::vector<NodeId>& work);

/// Node `i`'s flag in a packed mask.
[[nodiscard]] inline bool mask_bit(const std::vector<std::uint64_t>& words,
                                   NodeId i) {
  return ((words[i / 64] >> (i % 64)) & 1U) != 0;
}

/// Out-degree of every node (number of fan-in slots it drives).
std::vector<std::size_t> out_degrees(const Graph& g);

}  // namespace syn::graph
