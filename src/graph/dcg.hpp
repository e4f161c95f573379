// Directed cyclic circuit graph (paper §II).
//
// G = (V, E, X): nodes carry a type and an output width (the attributes X);
// a directed edge (i, j) means node i drives fan-in slot s of node j.
// Fan-ins are stored as fixed-size slot arrays (size = arity(type)), which
// makes constraint C1 structural; fan-outs are maintained as a mirror for
// traversal. kNoNode marks an unconnected slot (only legal while a graph is
// under construction or mid-repair in Phase 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/node_type.hpp"

namespace syn::graph {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffffU;

struct Node {
  NodeType type = NodeType::kConst;
  std::uint16_t width = 1;   // output signal width in bits
  std::uint32_t param = 0;   // kConst: value; kBitSelect: low bit index
  std::vector<NodeId> fanins;  // size arity(type); kNoNode = unconnected
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a node with all fan-in slots unconnected; returns its id.
  NodeId add_node(NodeType type, int width, std::uint32_t param = 0);

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] NodeType type(NodeId id) const { return nodes_[id].type; }
  [[nodiscard]] int width(NodeId id) const { return nodes_[id].width; }
  [[nodiscard]] std::uint32_t param(NodeId id) const { return nodes_[id].param; }

  [[nodiscard]] const std::vector<NodeId>& fanins(NodeId id) const {
    return nodes_[id].fanins;
  }
  [[nodiscard]] NodeId fanin(NodeId id, int slot) const {
    return nodes_[id].fanins[static_cast<std::size_t>(slot)];
  }
  /// Fan-out list: ids of nodes that have `id` in some fan-in slot
  /// (a consumer appears once per connected slot).
  [[nodiscard]] const std::vector<NodeId>& fanouts(NodeId id) const {
    return fanouts_[id];
  }

  /// Connects parent -> child at the given slot, replacing any previous
  /// connection of that slot.
  void set_fanin(NodeId child, int slot, NodeId parent);
  /// Disconnects a slot (leaves it kNoNode).
  void clear_fanin(NodeId child, int slot);

  /// True if all fan-in slots of the node are connected.
  [[nodiscard]] bool fanins_complete(NodeId id) const;
  /// True if every node in the graph has complete fan-ins.
  [[nodiscard]] bool all_fanins_complete() const;

  /// True if an edge from -> to exists in any slot of `to`.
  [[nodiscard]] bool has_edge(NodeId from, NodeId to) const;

  /// All (parent, child) pairs; a pair repeats if the parent feeds several
  /// slots of the same child.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Counts per node type.
  [[nodiscard]] std::vector<std::size_t> type_histogram() const;

  /// Ids of all nodes of the given type.
  [[nodiscard]] std::vector<NodeId> nodes_of_type(NodeType t) const;

  /// Total bits held in registers (denominator of SCPR, paper §VI).
  [[nodiscard]] std::size_t register_bits() const;

  /// Deep structural equality (same nodes, attributes and fan-ins).
  bool operator==(const Graph& other) const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> fanouts_;
  std::size_t num_edges_ = 0;
};

}  // namespace syn::graph
