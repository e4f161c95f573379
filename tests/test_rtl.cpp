// Tests for the Verilog bijection and the realistic design generators.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/validity.hpp"
#include "rtl/builder.hpp"
#include "rtl/generators.hpp"
#include "rtl/verilog.hpp"

namespace syn::rtl {
namespace {

using graph::Graph;
using graph::NodeType;

TEST(Verilog, EmitsModuleWithClockAndPorts) {
  Builder b("demo");
  const auto in = b.input(8);
  const auto r = b.reg(8);
  b.drive_reg(r, in);
  b.output(r);
  const std::string v = to_verilog(b.take());
  EXPECT_NE(v.find("module demo("), std::string::npos);
  EXPECT_NE(v.find("posedge clk"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, RejectsIncompleteGraph) {
  Graph g("bad");
  g.add_node(NodeType::kNot, 1);
  EXPECT_THROW(to_verilog(g), std::invalid_argument);
}

TEST(Verilog, RoundTripAllNodeTypes) {
  Builder b("full");
  const auto a = b.input(8);
  const auto c = b.input(8);
  const auto k = b.constant(8, 0x5a);
  const auto r = b.reg(8);
  const auto n_not = b.not_(a);
  const auto n_and = b.and_(a, c);
  const auto n_or = b.or_(n_not, k);
  const auto n_xor = b.xor_(n_and, n_or);
  const auto n_add = b.add(a, k);
  const auto n_sub = b.sub(c, n_add);
  const auto n_mul = b.mul(a, c);
  const auto n_eq = b.eq(n_sub, n_mul);
  const auto n_lt = b.lt(a, c);
  const auto n_mux = b.mux(n_eq, n_xor, n_add);
  const auto n_sel = b.bits(n_mux, 2, 4);
  const auto n_cat = b.concat(n_sel, n_lt, 8);
  b.drive_reg(r, n_cat);
  b.output(r);
  b.output(n_lt);
  const Graph g = b.take();
  ASSERT_TRUE(graph::is_valid(g));

  const std::string v = to_verilog(g);
  const Graph g2 = from_verilog(v);
  EXPECT_EQ(g, g2) << v;
}

TEST(Verilog, RoundTripIsIdempotentOnText) {
  const Graph g = make_counter(12, "cnt");
  const std::string v1 = to_verilog(g);
  const std::string v2 = to_verilog(from_verilog(v1));
  EXPECT_EQ(v1, v2);
}

TEST(Verilog, ParserRejectsGarbage) {
  EXPECT_THROW(from_verilog("not verilog at all"), VerilogParseError);
  EXPECT_THROW(from_verilog("module m(); bogus x; endmodule"),
               VerilogParseError);
}

// Every generator family must produce valid, cyclic-capable graphs.
struct GenCase {
  std::string label;
  Graph (*make)();
};

// Printed as its label. gtest's default byte dump would carry a heap and
// a code address, so every build would discover the cases (and ctest
// would list them) under different names.
void PrintTo(const GenCase& c, std::ostream* os) { *os << c.label; }

Graph gen_counter() { return make_counter(16); }
Graph gen_shift() { return make_shift_register(8, 6); }
Graph gen_lfsr() { return make_lfsr(16, 0xB400u); }
Graph gen_alu() { return make_alu(12); }
Graph gen_mac() { return make_mac_pipeline(10, 3); }
Graph gen_fifo() { return make_fifo_ctrl(4); }
Graph gen_fsm() { return make_fsm(3, 4); }
Graph gen_uart() { return make_uart_tx(8); }
Graph gen_rf() { return make_register_file(8, 8); }
Graph gen_arb() { return make_arbiter(5); }

class GeneratorTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorTest, ProducesValidGraph) {
  const Graph g = GetParam().make();
  const auto report = graph::validate(g);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(g.num_nodes(), 5u);
  EXPECT_GT(g.register_bits(), 0u);
}

TEST_P(GeneratorTest, SurvivesVerilogRoundTrip) {
  const Graph g = GetParam().make();
  EXPECT_EQ(g, from_verilog(to_verilog(g)));
}

TEST_P(GeneratorTest, HasSequentialFeedback) {
  // Real designs contain cycles (through registers); the generated corpus
  // must too, since cyclicity is the paper's core modelling challenge.
  const Graph g = GetParam().make();
  const auto comp = graph::strongly_connected_components(g);
  std::vector<std::size_t> size(g.num_nodes(), 0);
  for (auto c : comp) ++size[c];
  bool has_cycle = false;
  for (auto s : size) has_cycle = has_cycle || s > 1;
  EXPECT_TRUE(has_cycle) << g.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, GeneratorTest,
    ::testing::Values(GenCase{"counter", gen_counter},
                      GenCase{"shift", gen_shift}, GenCase{"lfsr", gen_lfsr},
                      GenCase{"alu", gen_alu}, GenCase{"mac", gen_mac},
                      GenCase{"fifo", gen_fifo}, GenCase{"fsm", gen_fsm},
                      GenCase{"uart", gen_uart}, GenCase{"regfile", gen_rf},
                      GenCase{"arbiter", gen_arb}),
    [](const auto& info) { return info.param.label; });

TEST(Corpus, MatchesTableOneComposition) {
  const auto corpus = make_corpus({});
  ASSERT_EQ(corpus.size(), 22u);
  int itc = 0, oc = 0, cy = 0;
  bool tiny_rocket = false, core = false;
  for (const auto& d : corpus) {
    itc += d.source == "itc99-like";
    oc += d.source == "opencores-like";
    cy += d.source == "chipyard-like";
    tiny_rocket = tiny_rocket || d.graph.name() == "TinyRocket";
    core = core || d.graph.name() == "Core";
    EXPECT_TRUE(graph::is_valid(d.graph)) << d.graph.name();
  }
  EXPECT_EQ(itc, 6);
  EXPECT_EQ(oc, 8);
  EXPECT_EQ(cy, 8);
  EXPECT_TRUE(tiny_rocket);
  EXPECT_TRUE(core);
}

TEST(Corpus, DeterministicForFixedSeed) {
  const auto a = corpus_graphs({.seed = 7});
  const auto b = corpus_graphs({.seed = 7});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Corpus, ScaleGrowsDesigns) {
  const auto small = corpus_graphs({.seed = 3, .scale = 1.0});
  const auto large = corpus_graphs({.seed = 3, .scale = 2.0});
  std::size_t n_small = 0, n_large = 0;
  for (const auto& g : small) n_small += g.num_nodes();
  for (const auto& g : large) n_large += g.num_nodes();
  EXPECT_GT(n_large, n_small);
}

}  // namespace
}  // namespace syn::rtl
