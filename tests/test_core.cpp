// Tests for Phase 2 repair, the attribute sampler and the full
// three-phase SynCircuit pipeline.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/postprocess.hpp"
#include "core/registry.hpp"
#include "core/syncircuit.hpp"
#include "diffusion/model.hpp"
#include "graph/algorithms.hpp"
#include "graph/validity.hpp"
#include "mcts/discriminator.hpp"
#include "mcts/mcts.hpp"
#include "rtl/generators.hpp"
#include "server/daemon.hpp"
#include "synth/synthesizer.hpp"
#include "tests/support/fixtures.hpp"
#include "util/thread_pool.hpp"

namespace syn::core {
namespace {

using graph::AdjacencyMatrix;
using graph::Graph;
using graph::NodeAttrs;
using graph::NodeType;

NodeAttrs mixed_attrs(std::size_t n, util::Rng& rng) {
  AttrSampler sampler;
  sampler.fit(rtl::corpus_graphs({.seed = 2}));
  return sampler.sample(n, rng);
}

nn::Matrix random_probs(std::size_t n, util::Rng& rng) {
  nn::Matrix p(n, n);
  for (auto& v : p.data()) v = static_cast<float>(rng.uniform());
  return p;
}

TEST(AttrSampler, GuaranteesStructuralMinimum) {
  AttrSampler sampler;
  sampler.fit({rtl::make_counter(4)});
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeAttrs attrs = sampler.sample(8, rng);
    int in = 0, out = 0, reg = 0;
    for (auto t : attrs.types) {
      in += t == NodeType::kInput;
      out += t == NodeType::kOutput;
      reg += t == NodeType::kReg;
    }
    EXPECT_GE(in, 1);
    EXPECT_GE(out, 1);
    EXPECT_GE(reg, 1);
  }
}

TEST(AttrSampler, RejectsRequestsBelowStructuralMinimum) {
  // The input/output/register guarantee needs >= 4 nodes; anything
  // smaller must be a clear invalid_argument (not an assert or UB on an
  // empty attrs vector), thrown before any randomness is consumed.
  AttrSampler sampler;
  sampler.fit({rtl::make_counter(4)});
  util::Rng rng(5);
  for (std::size_t n : {0u, 1u, 2u, 3u}) {
    EXPECT_THROW((void)sampler.sample(n, rng), std::invalid_argument)
        << "num_nodes=" << n;
  }
  const std::uint64_t draw_probe = util::Rng(5).next();
  EXPECT_EQ(rng.next(), draw_probe)
      << "a rejected sample must not consume randomness";
  EXPECT_EQ(sampler.sample(4, rng).size(), 4u);
  // Unfitted samplers keep reporting logic_error, not the size error.
  AttrSampler unfitted;
  EXPECT_THROW((void)unfitted.sample(0, rng), std::logic_error);
}

TEST(AttrSampler, MatchesCorpusTypeDistribution) {
  const auto corpus = rtl::corpus_graphs({.seed = 2});
  AttrSampler sampler;
  sampler.fit(corpus);
  util::Rng rng(6);
  const NodeAttrs attrs = sampler.sample(2000, rng);
  // Register fraction within a few points of the corpus's.
  std::size_t corpus_regs = 0, corpus_nodes = 0;
  for (const auto& g : corpus) {
    corpus_regs += g.nodes_of_type(NodeType::kReg).size();
    corpus_nodes += g.num_nodes();
  }
  std::size_t sampled_regs = 0;
  for (auto t : attrs.types) sampled_regs += t == NodeType::kReg;
  const double corpus_frac =
      static_cast<double>(corpus_regs) / static_cast<double>(corpus_nodes);
  const double sample_frac = static_cast<double>(sampled_regs) / 2000.0;
  EXPECT_NEAR(sample_frac, corpus_frac, 0.05);
}

TEST(Repair, ProducesValidGraphFromEmptyInit) {
  util::Rng rng(7);
  const NodeAttrs attrs = mixed_attrs(40, rng);
  const AdjacencyMatrix empty(attrs.size());
  const Graph g = repair_to_valid(attrs, empty, random_probs(40, rng), rng);
  EXPECT_TRUE(graph::is_valid(g)) << graph::validate(g).to_string();
}

TEST(Repair, ProducesValidGraphFromDenseInit) {
  util::Rng rng(8);
  const NodeAttrs attrs = mixed_attrs(30, rng);
  AdjacencyMatrix dense(attrs.size());
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    for (std::size_t j = 0; j < attrs.size(); ++j) {
      if (i != j) dense.set(i, j, true);
    }
  }
  const Graph g = repair_to_valid(attrs, dense, random_probs(30, rng), rng);
  EXPECT_TRUE(graph::is_valid(g)) << graph::validate(g).to_string();
}

TEST(Repair, KeepsValidGiniFaninsVerbatim) {
  // A graph that is already valid must survive repair unchanged (up to
  // slot order): every node's G_ini fan-in is legal and complete.
  const Graph real = rtl::make_counter(6);
  const NodeAttrs attrs = graph::attrs_of(real);
  const AdjacencyMatrix adj = graph::to_adjacency(real);
  // High probability on the true edges so ranking keeps them.
  nn::Matrix probs(attrs.size(), attrs.size());
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    for (std::size_t j = 0; j < attrs.size(); ++j) {
      probs.at(i, j) = adj.at(i, j) ? 0.9f : 0.1f;
    }
  }
  util::Rng rng(9);
  RepairStats stats;
  const Graph repaired = repair_to_valid(attrs, adj, probs, rng, &stats);
  EXPECT_TRUE(graph::is_valid(repaired));
  EXPECT_EQ(graph::to_adjacency(repaired), adj);
  EXPECT_EQ(stats.nodes_repaired, 0u);
}

TEST(Repair, HighProbabilityEdgesPreferred) {
  // Node 3 (an adder) must pick the two highest-probability legal parents.
  NodeAttrs attrs;
  attrs.types = {NodeType::kInput, NodeType::kInput, NodeType::kInput,
                 NodeType::kAdd, NodeType::kOutput, NodeType::kReg};
  attrs.widths = {4, 4, 4, 4, 4, 4};
  const AdjacencyMatrix empty(attrs.size());
  nn::Matrix probs(6, 6);
  probs.at(0, 3) = 0.2f;
  probs.at(1, 3) = 0.9f;
  probs.at(2, 3) = 0.8f;
  util::Rng rng(10);
  const Graph g = repair_to_valid(attrs, empty, probs, rng);
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Repair, NeverCreatesCombLoopEvenWithAdversarialProbs) {
  util::Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeAttrs attrs = mixed_attrs(25, rng);
    AdjacencyMatrix adversarial(attrs.size());
    // Fully-connected G_ini plus probabilities that favour back edges.
    nn::Matrix probs(attrs.size(), attrs.size());
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      for (std::size_t j = 0; j < attrs.size(); ++j) {
        if (i == j) continue;
        adversarial.set(i, j, rng.bernoulli(0.5));
        probs.at(i, j) = i > j ? 0.95f : 0.05f;
      }
    }
    const Graph g = repair_to_valid(attrs, adversarial, probs, rng);
    EXPECT_FALSE(graph::has_combinational_loop(g));
    EXPECT_TRUE(g.all_fanins_complete());
  }
}

class PipelineTest : public ::testing::Test {
 protected:
  static SynCircuitConfig fast_config(bool use_diffusion, bool optimize) {
    SynCircuitConfig cfg;
    cfg.diffusion.steps = 4;
    cfg.diffusion.denoiser = {.mpnn_layers = 2, .hidden = 12, .time_dim = 8};
    cfg.diffusion.epochs = 6;
    cfg.use_diffusion = use_diffusion;
    cfg.optimize = optimize;
    cfg.mcts = {.simulations = 20, .max_depth = 5, .actions_per_state = 6,
                .max_registers = 3};
    cfg.seed = 21;
    return cfg;
  }
  static std::vector<Graph> small_corpus() {
    return {rtl::make_counter(6), rtl::make_fifo_ctrl(3), rtl::make_fsm(2, 2)};
  }
  /// The production model, fitted as the daemon fits it
  /// (server::default_backend_config on the RTL corpus). Fitted once per
  /// test process; generate() reads only the rng it is handed, so the
  /// tests that share it cannot see each other.
  static SynCircuitGenerator& production() {
    static const std::unique_ptr<SynCircuitGenerator> gen = [] {
      const BackendConfig production = server::default_backend_config();
      SynCircuitConfig cfg = production.syncircuit;
      cfg.seed = production.seed;
      auto fitted = std::make_unique<SynCircuitGenerator>(cfg);
      fitted->fit(rtl::corpus_graphs({.seed = 1}));
      return fitted;
    }();
    return *gen;
  }
};

TEST_F(PipelineTest, FullPipelineProducesValidCircuit) {
  SynCircuitGenerator gen(fast_config(true, true));
  gen.fit(small_corpus());
  util::Rng rng(1);
  const NodeAttrs attrs = gen.attr_sampler().sample(30, rng);
  const Graph g = gen.generate(attrs, rng);
  EXPECT_TRUE(graph::is_valid(g)) << graph::validate(g).to_string();
  EXPECT_EQ(g.num_nodes(), 30u);
}

TEST_F(PipelineTest, AblationWithoutDiffusionStillValid) {
  SynCircuitGenerator gen(fast_config(false, false));
  gen.fit(small_corpus());
  util::Rng rng(2);
  const NodeAttrs attrs = gen.attr_sampler().sample(25, rng);
  const Graph g = gen.generate(attrs, rng);
  EXPECT_TRUE(graph::is_valid(g));
  EXPECT_EQ(gen.name(), "SynCircuit w/o diff w/o opt");
}

TEST_F(PipelineTest, PhasesExposeIntermediateStages) {
  SynCircuitGenerator gen(fast_config(true, true));
  gen.fit(small_corpus());
  util::Rng rng(3);
  const NodeAttrs attrs = gen.attr_sampler().sample(24, rng);
  auto phases = gen.run_phases(attrs, rng);
  EXPECT_TRUE(graph::is_valid(phases.gval));
  EXPECT_TRUE(graph::is_valid(phases.gopt));
  // Phase 3 preserves node count and edge count (swaps only).
  EXPECT_EQ(phases.gval.num_nodes(), phases.gopt.num_nodes());
  EXPECT_EQ(phases.gval.num_edges(), phases.gopt.num_edges());
}

TEST_F(PipelineTest, OptimizationDoesNotReduceScpr) {
  SynCircuitGenerator gen(fast_config(false, true));
  gen.fit(small_corpus());
  util::Rng rng(4);
  const NodeAttrs attrs = gen.attr_sampler().sample(28, rng);
  auto phases = gen.run_phases(attrs, rng);
  const double scpr_val = synth::synthesize_stats(phases.gval).scpr();
  const double scpr_opt = synth::synthesize_stats(phases.gopt).scpr();
  // MCTS keeps the best state seen, which includes the initial one.
  EXPECT_GE(scpr_opt + 1e-9, 0.0);
  EXPECT_GE(scpr_opt, scpr_val - 0.35);  // never catastrophically worse
}

TEST_F(PipelineTest, GenerateMatchesPhaseComposition) {
  // generate() draws Phase 1 through DiffusionModel::sample_batch; the
  // reference composes the pipeline from public parts with Phase 1 on the
  // tensor reference path, DiffusionModel::sample.
  SynCircuitGenerator& gen = production();
  const mcts::MctsConfig search =
      server::default_backend_config().syncircuit.mcts;
  const mcts::Reward reward = mcts::hybrid_reward_model(gen.discriminator());

  util::Rng attr_rng(12);
  for (std::size_t i = 0; i < 2; ++i) {
    const NodeAttrs attrs =
        gen.attr_sampler().sample(server::default_attr_nodes(i), attr_rng);
    const std::uint64_t seed = 40 + i;
    util::Rng rng(seed);
    const Graph generated = gen.generate(attrs, rng);

    util::Rng ref_rng(seed);
    const auto sample = gen.diffusion_model().sample(attrs, ref_rng);
    const Graph gval = repair_to_valid(attrs, sample.adjacency,
                                       sample.edge_prob, ref_rng);
    const Graph expected =
        mcts::optimize_registers(gval, search, reward, ref_rng);

    EXPECT_EQ(generated, expected) << "design " << i;
    EXPECT_EQ(generated.name(), "syncircuit");
    // Both consumed the same draws, so the streams continue in step.
    EXPECT_EQ(rng.next(), ref_rng.next()) << "design " << i;
  }
}

TEST_F(PipelineTest, LazySampleBatchMatchesSampleAtProductionConfig) {
  // At the production schedule most reverse draws are settled by their
  // uniform alone, so sample_batch decodes only some pairs; the toy model
  // of test_diffusion never sees these ranges. Whatever the chain count,
  // it must draw sample()'s adjacency and every P_E^(0) float bit for bit,
  // and skip pairs at every step but the last, which decodes them all.
  const diffusion::DiffusionModel& model = production().diffusion_model();
  const auto steps = static_cast<std::size_t>(model.schedule().steps());
  constexpr std::size_t kChains = 8;
  util::Rng attr_rng(31);
  std::vector<NodeAttrs> attrs;
  for (std::size_t i = 0; i < kChains; ++i) {
    attrs.push_back(production().attr_sampler().sample(
        server::default_attr_nodes(i), attr_rng));
  }
  const auto seeds = util::split_streams(91, kChains);
  std::vector<diffusion::DiffusionSample> expected;
  for (std::size_t c = 0; c < kChains; ++c) {
    util::Rng rng(seeds[c]);
    expected.push_back(model.sample(attrs[c], rng));
  }

  for (const std::size_t k : {std::size_t{1}, kChains}) {
    for (std::size_t lo = 0; lo < kChains; lo += k) {
      std::vector<util::Rng> rngs;
      for (std::size_t c = lo; c < lo + k; ++c) rngs.emplace_back(seeds[c]);
      diffusion::SampleStats stats;
      const auto got =
          model.sample_batch({attrs.data() + lo, k}, rngs, &stats);
      ASSERT_EQ(got.size(), k);
      for (std::size_t c = 0; c < k; ++c) {
        const diffusion::DiffusionSample& want = expected[lo + c];
        EXPECT_EQ(got[c].adjacency, want.adjacency)
            << "K=" << k << " chain " << lo + c;
        const auto& got_prob = got[c].edge_prob.data();
        const auto& want_prob = want.edge_prob.data();
        ASSERT_EQ(got_prob.size(), want_prob.size());
        std::size_t differing = 0;
        for (std::size_t e = 0; e < want_prob.size(); ++e) {
          differing += std::bit_cast<std::uint32_t>(got_prob[e]) !=
                       std::bit_cast<std::uint32_t>(want_prob[e]);
        }
        EXPECT_EQ(differing, 0u) << "K=" << k << " chain " << lo + c;
      }
      ASSERT_EQ(stats.scored.size(), steps);
      EXPECT_EQ(stats.scored[0], stats.pairs) << "K=" << k << " from " << lo;
      for (std::size_t t = 2; t <= steps; ++t) {
        EXPECT_LT(stats.scored[t - 1], stats.pairs)
            << "K=" << k << " from " << lo << " t=" << t;
      }
    }
  }
}

TEST_F(PipelineTest, PinnedProductionDesigns) {
  // generate() at the production config, all three phases. Any change that
  // moves a generated design moves these digests, and with them every
  // generated dataset; re-record them only when that is the intent. They
  // pin Phase 1 too: the sampler identity tests compare sample_batch with
  // sample(), so a change that moved both alike would pass them.
  const std::uint64_t digests[] = {0x790f8322cb09c5b4ULL, 0xcf4fb7a82d12153bULL,
                                   0xc1be8394d914c966ULL};
  SynCircuitGenerator& gen = production();
  util::Rng attr_rng(13);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t nodes = server::default_attr_nodes(i);
    const NodeAttrs attrs = gen.attr_sampler().sample(nodes, attr_rng);
    util::Rng rng(50 + i);
    const Graph g = gen.generate(attrs, rng);
    EXPECT_EQ(testsupport::verilog_digest(g), digests[i])
        << "nodes " << nodes << " digest 0x" << std::hex
        << testsupport::verilog_digest(g);
  }
}

TEST_F(PipelineTest, RunPhasesMatchesGenerate) {
  // run_phases is the one per-design body: generate() and the inherited
  // generate_batch return its G_opt in every ablation setting, including
  // the random "w/o diff" initialization.
  for (const bool use_diffusion : {true, false}) {
    for (const bool optimize : {true, false}) {
      SynCircuitGenerator gen(fast_config(use_diffusion, optimize));
      gen.fit(small_corpus());
      util::Rng attr_rng(6);
      const NodeAttrs attrs = gen.attr_sampler().sample(26, attr_rng);
      const std::uint64_t seed = 77;

      util::Rng phases_rng(seed);
      const auto phases = gen.run_phases(attrs, phases_rng);
      util::Rng generate_rng(seed);
      const Graph generated = gen.generate(attrs, generate_rng);
      const std::vector<Graph> batch = gen.generate_batch(
          std::vector<NodeAttrs>{attrs}, std::vector<std::uint64_t>{seed});

      EXPECT_TRUE(graph::is_valid(phases.gopt)) << gen.name();
      EXPECT_EQ(phases.gopt, generated) << gen.name();
      ASSERT_EQ(batch.size(), 1u);
      EXPECT_EQ(batch[0], generated) << gen.name();
      if (!optimize) {
        EXPECT_EQ(phases.gopt, phases.gval) << gen.name();
      }
    }
  }
}

TEST_F(PipelineTest, GenerateBeforeFitThrows) {
  SynCircuitGenerator gen(fast_config(true, true));
  util::Rng rng(5);
  NodeAttrs attrs;
  attrs.types = {NodeType::kInput, NodeType::kOutput, NodeType::kReg,
                 NodeType::kAdd};
  attrs.widths = {4, 4, 4, 4};
  EXPECT_THROW(gen.generate(attrs, rng), std::logic_error);
}

}  // namespace
}  // namespace syn::core
