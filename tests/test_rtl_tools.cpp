// Tests for the RTL tooling added on top of the core reproduction: the
// word-level simulator run on corpus generators (counter, ALU, FIFO), DOT
// export, scale-free fitting and critical paths.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/export.hpp"
#include "rtl/generators.hpp"
#include "rtl/simulator.hpp"
#include "sta/critical_path.hpp"
#include "stats/scalefree.hpp"
#include "synth/synthesizer.hpp"
#include "util/rng.hpp"

namespace syn {
namespace {

using graph::Graph;
using graph::NodeType;

TEST(Simulator, CounterCountsAndWraps) {
  rtl::Simulator sim(rtl::make_counter(4, "cnt"));
  // inputs in id order: en, load, d.
  std::vector<std::uint64_t> last;
  for (int cycle = 0; cycle < 20; ++cycle) {
    last = sim.step({1, 0, 0});
  }
  // After 20 enabled cycles the counter shows the *previous* cycle's
  // latched value: counting starts one cycle late, so expect 19 mod 16.
  EXPECT_EQ(last[0] % 16, (20 - 1) % 16);
}

TEST(Simulator, CounterLoadPath) {
  rtl::Simulator sim(rtl::make_counter(8, "cnt"));
  sim.step({1, 1, 0x5a});  // request load
  const auto out = sim.step({0, 0, 0});  // latched now
  EXPECT_EQ(out[0], 0x5au);
}

TEST(Simulator, AluComputesSelectedOp) {
  // make_alu inputs in id order: a_in, c, op, acc_mode.
  rtl::Simulator sim(rtl::make_alu(8, "alu"));
  sim.step({7, 3, 0, 0});   // op 0 with s2=0,s1=0,s0=0 -> mux tree
  const auto out = sim.step({7, 3, 0, 0});
  // op=0: s0=0 -> m0 = sub? m0 = mux(s0, sum, sub) -> sub = 7-3 = 4;
  // m3 = mux(s1=0, m0, m1) -> m1 = mux(s0=0, and, or)=or? m3 picks ELSE
  // branch when s1=0 -> m1. Decode precisely: result = mux(s2=0, m3, m4)
  // -> m4 (else). m4 = mux(s1=0 -> else m0) = sub = 4.
  EXPECT_EQ(out[0], 4u);
}

TEST(Simulator, RejectsInvalidDesigns) {
  Graph g("bad");
  g.add_node(NodeType::kNot, 1);
  EXPECT_THROW(rtl::Simulator sim(g), std::invalid_argument);
}

TEST(Simulator, FifoTracksOccupancy) {
  rtl::Simulator sim(rtl::make_fifo_ctrl(3, "fifo"));
  // inputs: push, pop. outputs: full, empty, wptr, rptr, count, strobe.
  auto out = sim.step({0, 0});
  for (int i = 0; i < 4; ++i) out = sim.step({1, 0});
  out = sim.step({0, 0});
  EXPECT_EQ(out[4], 4u);  // count == pushes
  for (int i = 0; i < 2; ++i) out = sim.step({0, 1});
  out = sim.step({0, 0});
  EXPECT_EQ(out[4], 2u);
}

TEST(Export, DotContainsAllNodesAndEdges) {
  const Graph g = rtl::make_counter(4);
  const std::string dot = graph::to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    EXPECT_NE(dot.find("n" + std::to_string(i) + " ["), std::string::npos);
  }
}

TEST(ScaleFree, RecoversKnownExponent) {
  // Samples drawn from P(x) ~ x^-2.5 via inverse CDF.
  util::Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) {
    samples.push_back(std::pow(1.0 - rng.uniform(), -1.0 / 1.5));
  }
  const auto fit = stats::fit_power_law(samples, 1.0);
  EXPECT_NEAR(fit.alpha, 2.5, 0.15);
  EXPECT_LT(fit.ks_distance, 0.05);
}

TEST(ScaleFree, CorpusDegreesAreHeavyTailed) {
  // Real circuits are scale-free-ish: exponent in a plausible band.
  auto corpus = rtl::make_corpus({.seed = 1});
  const auto fit = stats::degree_power_law(corpus.back().graph);
  EXPECT_GT(fit.alpha, 1.2);
  EXPECT_LT(fit.alpha, 8.0);  // small designs fit steep but finite tails
  EXPECT_GT(fit.tail_samples, 10u);
}

TEST(CriticalPath, WorstPathMatchesWns) {
  const auto result = synth::synthesize(rtl::make_alu(10));
  const sta::TimingOptions options{.clock_period_ns = 0.6};
  const auto report = sta::analyze(result.netlist, options);
  const auto paths = sta::worst_paths(result.netlist, options, 3);
  ASSERT_FALSE(paths.empty());
  EXPECT_NEAR(paths.front().slack_ns, report.wns, 1e-9);
  // Paths are sorted by slack and non-empty.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].slack_ns, paths[i - 1].slack_ns);
  }
  for (const auto& p : paths) {
    EXPECT_FALSE(p.nodes.empty());
    // Arrival times must be monotone along the traced path.
    for (std::size_t k = 1; k < p.nodes.size(); ++k) {
      EXPECT_GE(p.nodes[k].arrival_ns, p.nodes[k - 1].arrival_ns - 1e-9);
    }
  }
  EXPECT_FALSE(sta::render_path(paths.front()).empty());
}

}  // namespace
}  // namespace syn
