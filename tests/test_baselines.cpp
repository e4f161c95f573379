// Tests for the four baseline generators, their shared machinery, the
// backend registry, and the inherited batch-first generation contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/dvae.hpp"
#include "baselines/graphmaker.hpp"
#include "baselines/graphrnn.hpp"
#include "baselines/gravity.hpp"
#include "baselines/ordering.hpp"
#include "baselines/sparsedigress.hpp"
#include "baselines/window_common.hpp"
#include "core/generator.hpp"
#include "core/registry.hpp"
#include "graph/algorithms.hpp"
#include "graph/validity.hpp"
#include "rtl/generators.hpp"
#include "util/thread_pool.hpp"

namespace syn::baselines {
namespace {

using graph::Graph;
using graph::NodeAttrs;
using graph::NodeType;

std::vector<Graph> tiny_corpus() {
  return {rtl::make_counter(6), rtl::make_fifo_ctrl(3), rtl::make_fsm(2, 2),
          rtl::make_shift_register(4, 4)};
}

TEST(Ordering, TrainingOrderRespectsCombEdges) {
  const Graph g = rtl::make_fifo_ctrl(4);
  const auto order = dag_training_order(g);
  ASSERT_EQ(order.size(), g.num_nodes());
  std::vector<std::size_t> pos(g.num_nodes());
  for (std::size_t k = 0; k < order.size(); ++k) pos[order[k]] = k;
  for (const auto& [from, to] : g.edges()) {
    if (!graph::is_sequential(g.type(to)) &&
        !graph::is_sequential(g.type(from))) {
      EXPECT_LT(pos[from], pos[to]);
    }
  }
}

TEST(Ordering, GenerationOrderPutsSourcesFirstOutputsLast) {
  NodeAttrs attrs;
  attrs.types = {NodeType::kOutput, NodeType::kAdd, NodeType::kInput,
                 NodeType::kReg, NodeType::kConst};
  attrs.widths = {4, 4, 4, 4, 4};
  const auto perm = generation_order(attrs);
  const auto ordered = permute_attrs(attrs, perm);
  EXPECT_TRUE(graph::is_source(ordered.types.front()));
  EXPECT_TRUE(graph::is_sink(ordered.types.back()));
}

TEST(WindowCommon, SequenceTargetsMatchForwardEdges) {
  const Graph g = rtl::make_counter(4);
  const auto seq = build_window_sequence(g, 8);
  ASSERT_EQ(seq.targets.size(), g.num_nodes());
  // Every in-window forward edge appears exactly once as a 1-bit.
  std::size_t bits = 0;
  for (const auto& row : seq.targets) {
    for (float b : row) bits += b > 0.5f;
  }
  EXPECT_GT(bits, 0u);
  EXPECT_LE(bits, g.num_edges());
}

TEST(WindowCommon, UnpermuteRestoresAttributeOrder) {
  const Graph g = rtl::make_counter(5);
  const NodeAttrs attrs = graph::attrs_of(g);
  const auto perm = generation_order(attrs);
  const NodeAttrs ordered = permute_attrs(attrs, perm);
  // Build a permuted copy of g? Simpler: permute and unpermute attrs only.
  const Graph skeleton = graph::skeleton_from_attrs(ordered, "p");
  const Graph restored = unpermute_graph(skeleton, perm, "r");
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(restored.type(i), attrs.types[i]);
    EXPECT_EQ(restored.width(i), attrs.widths[i]);
  }
}

TEST(Gravity, LearnsEdgeDirectionTendencies) {
  GravityOrienter orienter;
  orienter.fit(tiny_corpus());
  // Constants drive adders (counter increments), never the reverse; and
  // registers drive output ports, never the reverse.
  EXPECT_GT(orienter.forward_probability(NodeType::kConst, NodeType::kAdd),
            0.5);
  EXPECT_LT(orienter.forward_probability(NodeType::kOutput, NodeType::kReg),
            0.5);
}

TEST(Gravity, OrientProducesOneDirectionPerEdge) {
  GravityOrienter orienter;
  orienter.fit(tiny_corpus());
  NodeAttrs attrs;
  for (int i = 0; i < 10; ++i) {
    attrs.types.push_back(i % 2 ? NodeType::kAdd : NodeType::kReg);
    attrs.widths.push_back(4);
  }
  graph::AdjacencyMatrix undirected(10);
  nn::Matrix prob(10, 10);
  undirected.set(0, 1, true);
  undirected.set(2, 3, true);
  undirected.set(4, 7, true);
  util::Rng rng(31);
  const auto oriented = orienter.orient(attrs, undirected, prob, rng);
  EXPECT_EQ(oriented.adjacency.num_edges(), 3u);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_FALSE(oriented.adjacency.at(i, j) && oriented.adjacency.at(j, i));
    }
  }
}

/// All four baselines must produce valid circuits after their adaptation
/// pipelines; the DAG baselines must additionally produce acyclic
/// combinational-and-sequential structure (the paper's observed
/// limitation).
class BaselineTest : public ::testing::Test {
 protected:
  static NodeAttrs attrs(std::size_t n, std::uint64_t seed) {
    core::AttrSampler sampler;
    sampler.fit(tiny_corpus());
    util::Rng rng(seed);
    return sampler.sample(n, rng);
  }
};

TEST_F(BaselineTest, GraphRnnGeneratesValidAcyclicCircuits) {
  GraphRnn model({.window = 8, .hidden = 16, .epochs = 4, .seed = 11});
  model.fit(tiny_corpus());
  EXPECT_FALSE(model.epoch_losses().empty());
  util::Rng rng(1);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = model.generate(attrs(24, 100 + trial), rng);
    EXPECT_TRUE(graph::is_valid(g)) << graph::validate(g).to_string();
    // DAG-only: no strongly connected component with > 1 node.
    const auto comp = graph::strongly_connected_components(g);
    std::vector<std::size_t> size(g.num_nodes(), 0);
    for (auto c : comp) ++size[c];
    for (auto s : size) EXPECT_LE(s, 1u);
  }
}

TEST_F(BaselineTest, DvaeGeneratesValidCircuits) {
  Dvae model({.window = 8, .hidden = 16, .latent = 4, .epochs = 4, .seed = 12});
  model.fit(tiny_corpus());
  util::Rng rng(2);
  const Graph g = model.generate(attrs(24, 200), rng);
  EXPECT_TRUE(graph::is_valid(g)) << graph::validate(g).to_string();
}

TEST_F(BaselineTest, DvaeDifferentLatentsGiveDifferentGraphs) {
  Dvae model({.window = 8, .hidden = 16, .latent = 4, .epochs = 4, .seed = 13});
  model.fit(tiny_corpus());
  util::Rng rng(3);
  const NodeAttrs a = attrs(24, 300);
  const Graph g1 = model.generate(a, rng);
  const Graph g2 = model.generate(a, rng);
  EXPECT_FALSE(g1 == g2);  // stochastic latent + edge sampling
}

TEST_F(BaselineTest, GraphMakerGeneratesValidCircuits) {
  GraphMaker model({.hidden = 16, .epochs = 10, .seed = 14});
  model.fit(tiny_corpus());
  util::Rng rng(4);
  const Graph g = model.generate(attrs(20, 400), rng);
  EXPECT_TRUE(graph::is_valid(g)) << graph::validate(g).to_string();
}

TEST_F(BaselineTest, SparseDigressGeneratesValidCircuits) {
  SparseDigress model(
      {.steps = 4, .mpnn_layers = 2, .hidden = 16, .epochs = 4, .seed = 15});
  model.fit(tiny_corpus());
  util::Rng rng(5);
  const Graph g = model.generate(attrs(20, 500), rng);
  EXPECT_TRUE(graph::is_valid(g)) << graph::validate(g).to_string();
}

/// The default (inherited) generate_batch must be a pure throughput
/// lever for every baseline: batched output bitwise-equal to the scalar
/// generate() loop on the same per-item streams, at any batch size and
/// thread count.
TEST_F(BaselineTest, DefaultGenerateBatchBitIdenticalToScalarLoop) {
  const auto corpus = tiny_corpus();
  std::vector<std::unique_ptr<core::GeneratorModel>> models;
  models.push_back(std::make_unique<GraphRnn>(
      GraphRnnConfig{.window = 8, .hidden = 16, .epochs = 2, .seed = 21}));
  models.push_back(std::make_unique<Dvae>(DvaeConfig{
      .window = 8, .hidden = 16, .latent = 4, .epochs = 2, .seed = 22}));
  models.push_back(std::make_unique<GraphMaker>(
      GraphMakerConfig{.hidden = 16, .epochs = 6, .seed = 23}));
  models.push_back(std::make_unique<SparseDigress>(SparseDigressConfig{
      .steps = 3, .mpnn_layers = 2, .hidden = 16, .epochs = 2, .seed = 24}));

  std::vector<graph::NodeAttrs> items;
  for (int i = 0; i < 5; ++i) items.push_back(attrs(16 + 4 * (i % 2), 700 + i));
  const std::uint64_t seed = 808;
  const auto seeds = util::split_streams(seed, items.size());

  for (auto& model : models) {
    model->fit(corpus);
    // Reference: the scalar path, one generate() per item on its stream.
    std::vector<graph::Graph> reference;
    for (std::size_t i = 0; i < items.size(); ++i) {
      util::Rng rng(seeds[i]);
      reference.push_back(model->generate(items[i], rng));
      EXPECT_TRUE(graph::is_valid(reference.back()))
          << model->name() << ": " << graph::validate(reference.back()).to_string();
    }
    const std::pair<std::size_t, int> shapes[] = {
        {1, 1}, {2, 1}, {5, 1}, {2, 2}, {1, 8}};
    for (const auto& [batch, threads] : shapes) {
      const auto out = model->generate_batch(
          items, seed, {.batch = batch, .threads = threads});
      ASSERT_EQ(out.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(out[i], reference[i])
            << model->name() << " item " << i << " batch=" << batch
            << " threads=" << threads;
      }
    }
  }
}

TEST(Registry, ConstructsAllFiveBackendsByName) {
  const std::vector<std::string> five = {"dvae", "graphmaker", "graphrnn",
                                         "sparsedigress", "syncircuit"};
  ASSERT_EQ(core::registered_generators(), five);
  for (const std::string& name : five) {
    const auto model = core::make_generator(name);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_FALSE(model->name().empty()) << name;
  }
}

TEST(Registry, AcceptsDisplayAliasesAndAnyCase) {
  EXPECT_EQ(core::make_generator("GraphMaker-v")->name(), "GraphMaker-v");
  EXPECT_EQ(core::make_generator("SparseDigress-v")->name(),
            "SparseDigress-v");
  EXPECT_EQ(core::make_generator("D-VAE")->name(), "DVAE");
  EXPECT_EQ(core::make_generator("GRAPHRNN")->name(), "GraphRNN");
  EXPECT_EQ(core::make_generator("SynCircuit")->name(), "SynCircuit w/ diff");
}

TEST(Registry, UnknownBackendThrowsListingAvailable) {
  try {
    (void)core::make_generator("not-a-backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not-a-backend"), std::string::npos);
    EXPECT_NE(what.find("syncircuit"), std::string::npos);
    EXPECT_NE(what.find("dvae"), std::string::npos);
  }
}

TEST(Registry, ConfigKnobsReachTheBackends) {
  core::BackendConfig cfg;
  cfg.seed = 123;
  cfg.epochs = 1;
  cfg.hidden = 8;
  // A 1-epoch fit on a tiny corpus stays fast for every backend and
  // proves the shared knobs actually drive training.
  auto rnn = core::make_generator("graphrnn", cfg);
  rnn->fit(tiny_corpus());
  auto* typed = dynamic_cast<GraphRnn*>(rnn.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->epoch_losses().size(), 1u);
}

TEST_F(BaselineTest, GenerateBeforeFitThrows) {
  GraphRnn rnn({.epochs = 1});
  Dvae dvae({.epochs = 1});
  GraphMaker maker({.epochs = 1});
  SparseDigress digress({.epochs = 1});
  util::Rng rng(6);
  const NodeAttrs a = attrs(10, 600);
  EXPECT_THROW((void)rnn.generate(a, rng), std::logic_error);
  EXPECT_THROW((void)dvae.generate(a, rng), std::logic_error);
  EXPECT_THROW((void)maker.generate(a, rng), std::logic_error);
  EXPECT_THROW((void)digress.generate(a, rng), std::logic_error);
}

}  // namespace
}  // namespace syn::baselines
