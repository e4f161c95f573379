// Unit tests for the DCG IR, constraint checking and graph algorithms.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/adjacency.hpp"
#include "graph/algorithms.hpp"
#include "graph/dcg.hpp"
#include "graph/validity.hpp"
#include "rtl/builder.hpp"
#include "rtl/generators.hpp"

namespace syn::graph {
namespace {

using rtl::Builder;

TEST(NodeType, ArityMatchesPaperConstraintC1) {
  EXPECT_EQ(arity(NodeType::kInput), 0);
  EXPECT_EQ(arity(NodeType::kConst), 0);
  EXPECT_EQ(arity(NodeType::kReg), 1);
  EXPECT_EQ(arity(NodeType::kNot), 1);
  EXPECT_EQ(arity(NodeType::kAdd), 2);
  EXPECT_EQ(arity(NodeType::kMux), 3);
  EXPECT_EQ(arity(NodeType::kConcat), 2);
}

TEST(NodeType, NamesRoundTrip) {
  for (int i = 0; i < kNumNodeTypes; ++i) {
    const auto t = static_cast<NodeType>(i);
    NodeType parsed{};
    ASSERT_TRUE(parse_type_name(type_name(t), parsed));
    EXPECT_EQ(parsed, t);
  }
  NodeType t{};
  EXPECT_FALSE(parse_type_name("bogus", t));
}

TEST(Graph, EdgeBookkeeping) {
  Graph g("t");
  const NodeId a = g.add_node(NodeType::kInput, 4);
  const NodeId b = g.add_node(NodeType::kInput, 4);
  const NodeId s = g.add_node(NodeType::kAdd, 4);
  g.set_fanin(s, 0, a);
  g.set_fanin(s, 1, b);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(a, s));
  EXPECT_TRUE(g.has_edge(b, s));
  EXPECT_EQ(g.fanouts(a).size(), 1u);
  // Replacing a slot keeps counts consistent.
  g.set_fanin(s, 0, b);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FALSE(g.has_edge(a, s));
  EXPECT_EQ(g.fanouts(a).size(), 0u);
  EXPECT_EQ(g.fanouts(b).size(), 2u);
  g.clear_fanin(s, 0);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, SingleBitResultTypesForceWidthOne) {
  Graph g("t");
  const NodeId e = g.add_node(NodeType::kEq, 16);
  EXPECT_EQ(g.width(e), 1);
}

TEST(Graph, RegisterBitsSumsWidths) {
  Graph g("t");
  g.add_node(NodeType::kReg, 8);
  g.add_node(NodeType::kReg, 3);
  g.add_node(NodeType::kAdd, 8);
  EXPECT_EQ(g.register_bits(), 11u);
}

TEST(CombLoop, PureCombCycleDetected) {
  Graph g("t");
  const NodeId a = g.add_node(NodeType::kNot, 1);
  const NodeId b = g.add_node(NodeType::kNot, 1);
  g.set_fanin(a, 0, b);
  g.set_fanin(b, 0, a);
  EXPECT_TRUE(has_combinational_loop(g));
  EXPECT_FALSE(comb_topo_order(g).has_value());
}

TEST(CombLoop, CycleThroughRegisterIsLegal) {
  Graph g("t");
  const NodeId r = g.add_node(NodeType::kReg, 1);
  const NodeId n = g.add_node(NodeType::kNot, 1);
  g.set_fanin(n, 0, r);
  g.set_fanin(r, 0, n);
  EXPECT_FALSE(has_combinational_loop(g));
  EXPECT_TRUE(comb_topo_order(g).has_value());
}

TEST(CombLoop, EdgePredictionMatchesPostAdditionCheck) {
  Graph g("t");
  const NodeId a = g.add_node(NodeType::kAnd, 1);
  const NodeId b = g.add_node(NodeType::kOr, 1);
  const NodeId c = g.add_node(NodeType::kXor, 1);
  g.set_fanin(b, 0, a);
  g.set_fanin(c, 0, b);
  // c -> a would close a 3-node combinational loop.
  EXPECT_TRUE(edge_creates_comb_loop(g, c, a));
  // a -> c is a forward edge, no loop.
  EXPECT_FALSE(edge_creates_comb_loop(g, a, c));
  // Self-loop on a combinational node is a loop.
  EXPECT_TRUE(edge_creates_comb_loop(g, a, a));
}

TEST(CombLoop, EdgeIntoRegisterNeverCombLoop) {
  Graph g("t");
  const NodeId r = g.add_node(NodeType::kReg, 1);
  const NodeId n = g.add_node(NodeType::kNot, 1);
  g.set_fanin(n, 0, r);
  EXPECT_FALSE(edge_creates_comb_loop(g, n, r));
}

TEST(CombLoop, PathQueriesMatchFreshSearchAcrossGraphSizes) {
  // comb_path_exists reuses per-thread scratch between calls. Queries that
  // alternate between graphs of different sizes must still answer what a
  // search with fresh storage answers.
  const auto fresh_search = [](const Graph& g, NodeId src, NodeId dst) {
    if (is_sequential(g.type(src)) || is_sequential(g.type(dst))) {
      return false;
    }
    std::vector<bool> seen(g.num_nodes(), false);
    std::vector<NodeId> work{src};
    seen[src] = true;
    while (!work.empty()) {
      const NodeId n = work.back();
      work.pop_back();
      if (n == dst) return true;
      for (NodeId next : g.fanouts(n)) {
        if (seen[next] || is_sequential(g.type(next))) continue;
        seen[next] = true;
        work.push_back(next);
      }
    }
    return false;
  };
  const std::vector<Graph> graphs{rtl::make_alu(8), rtl::make_counter(4),
                                  rtl::make_fsm(3, 2), rtl::make_counter(2)};
  std::size_t reachable = 0;
  for (int round = 0; round < 2; ++round) {
    for (const Graph& g : graphs) {
      for (NodeId src = 0; src < g.num_nodes(); ++src) {
        for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
          const bool expected = fresh_search(g, src, dst);
          ASSERT_EQ(comb_path_exists(g, src, dst), expected)
              << g.name() << " " << src << " -> " << dst;
          reachable += expected;
        }
      }
    }
  }
  EXPECT_GT(reachable, 0u);
}

TEST(Scc, RegisterLoopFormsOneComponent) {
  Builder b("t");
  const auto r = b.reg(4);
  const auto inc = b.add(r, b.constant(4, 1));
  b.drive_reg(r, inc);
  b.output(r);
  const Graph g = b.take();
  const auto comp = strongly_connected_components(g);
  EXPECT_EQ(comp[r], comp[inc]);
}

TEST(DrivingCone, StopsAtBoundaries) {
  Builder b("t");
  const auto in = b.input(4);
  const auto r_other = b.reg(4);
  b.drive_reg(r_other, in);
  const auto sum = b.add(in, r_other);
  const auto r = b.reg(4);
  b.drive_reg(r, sum);
  b.output(r);
  const Graph g = b.take();
  const auto cone = driving_cone(g, r);
  // Cone = {r, sum, in, r_other}; must NOT include r_other's fan-in (in is
  // already a boundary, but the traversal must not pass through r_other).
  EXPECT_EQ(cone.size(), 4u);
}

TEST(Observability, DeadBranchInvisible) {
  Builder b("t");
  const auto in = b.input(4);
  const auto live = b.not_(in);
  const auto dead = b.add(in, in);
  b.output(live);
  const Graph g = b.take();
  const auto mask = observable_mask(g);
  EXPECT_TRUE(mask[live]);
  EXPECT_TRUE(mask[in]);
  EXPECT_FALSE(mask[dead]);
}

TEST(Observability, PackedMaskMatchesBoolMask) {
  // Past 64 nodes the packed mask spans words; bits past the node count
  // stay 0, so equal masks compare equal as words.
  Builder b("t");
  const auto in = b.input(4);
  auto live = in;
  for (int i = 0; i < 40; ++i) {
    live = b.not_(live);
    (void)b.add(live, in);  // dead
  }
  b.output(live);
  const Graph g = b.take();
  ASSERT_GT(g.num_nodes(), 64u);
  std::vector<std::uint64_t> words{~std::uint64_t{0}};  // stale contents
  std::vector<NodeId> work{7};
  observable_mask(g, words, work);
  ASSERT_EQ(words.size(), (g.num_nodes() + 63) / 64);
  const std::vector<bool> mask = observable_mask(g);
  std::size_t observable = 0;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(mask_bit(words, i), mask[i]) << "node " << i;
    observable += mask[i];
  }
  EXPECT_EQ(observable, 42u);  // the input, 40 nots and the output
  EXPECT_EQ(words.back() >> (g.num_nodes() % 64), 0u);
}

TEST(Validity, CompleteValidGraphPasses) {
  Builder b("t");
  const auto r = b.reg(4);
  b.drive_reg(r, b.add(r, b.constant(4, 1)));
  b.output(r);
  const Graph g = b.take();
  EXPECT_TRUE(is_valid(g));
}

TEST(Validity, UnconnectedFaninReported) {
  Graph g("t");
  g.add_node(NodeType::kNot, 1);
  g.add_node(NodeType::kOutput, 1);
  const auto report = validate(g);
  EXPECT_FALSE(report.ok());
}

TEST(Validity, OutputWithFanoutRejected) {
  Graph g("t");
  const NodeId in = g.add_node(NodeType::kInput, 1);
  const NodeId out = g.add_node(NodeType::kOutput, 1);
  const NodeId n = g.add_node(NodeType::kNot, 1);
  g.set_fanin(out, 0, in);
  g.set_fanin(n, 0, out);
  EXPECT_FALSE(validate(g).ok());
}

TEST(Adjacency, RoundTripThroughMatrix) {
  Builder b("t");
  const auto r = b.reg(4);
  const auto sum = b.add(r, b.constant(4, 1));
  b.drive_reg(r, sum);
  b.output(r);
  const Graph g = b.take();
  const auto adj = to_adjacency(g);
  EXPECT_EQ(adj.num_edges(), g.num_edges());
  const Graph g2 = graph_from_adjacency(attrs_of(g), adj, "copy");
  // Same edge set (slot order may differ but this graph has no multi-slot
  // same-parent patterns).
  EXPECT_EQ(to_adjacency(g2), adj);
}

TEST(Adjacency, SurplusParentsDropped) {
  NodeAttrs attrs;
  attrs.types = {NodeType::kInput, NodeType::kInput, NodeType::kInput,
                 NodeType::kNot};
  attrs.widths = {1, 1, 1, 1};
  AdjacencyMatrix adj(4);
  adj.set(0, 3, true);
  adj.set(1, 3, true);
  adj.set(2, 3, true);
  const Graph g = graph_from_adjacency(attrs, adj, "t");
  EXPECT_EQ(g.fanins(3).size(), 1u);
  EXPECT_EQ(g.fanin(3, 0), 0u);  // lowest id wins
}

}  // namespace
}  // namespace syn::graph
