// Tests for the swap action, MCTS search and the PCS discriminator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/validity.hpp"
#include "mcts/discriminator.hpp"
#include "mcts/mcts.hpp"
#include "rtl/generators.hpp"
#include "synth/synthesizer.hpp"
#include "tests/support/fixtures.hpp"

namespace syn::mcts {
namespace {

using graph::Graph;
using graph::NodeType;
using testsupport::redundant_circuit;
using testsupport::verilog_digest;

TEST(SwapAction, PreservesDegreesAndValidity) {
  Graph g = redundant_circuit(30, 41);
  util::Rng rng(42);
  const auto edges_before = g.num_edges();
  std::vector<std::size_t> out_before;
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    out_before.push_back(g.fanouts(i).size());
  }
  int applied = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SwapAction a;
    a.child_a = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
    a.child_b = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
    if (g.fanins(a.child_a).empty() || g.fanins(a.child_b).empty()) continue;
    a.slot_a = static_cast<int>(rng.uniform_int(g.fanins(a.child_a).size()));
    a.slot_b = static_cast<int>(rng.uniform_int(g.fanins(a.child_b).size()));
    applied += apply_swap(g, a);
    ASSERT_TRUE(graph::is_valid(g)) << "after trial " << trial;
  }
  EXPECT_GT(applied, 0);
  EXPECT_EQ(g.num_edges(), edges_before);
  // Out-degrees (paper: the atomic operation maintains in/out degrees).
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(g.fanouts(i).size(), out_before[i]) << "node " << i;
  }
}

TEST(SwapAction, RejectsDegenerateSwaps) {
  Graph g = redundant_circuit(20, 43);
  // Same (child, slot) twice is a no-op and must be rejected.
  graph::NodeId child = graph::kNoNode;
  for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
    if (!g.fanins(i).empty()) {
      child = i;
      break;
    }
  }
  ASSERT_NE(child, graph::kNoNode);
  EXPECT_FALSE(apply_swap(g, {child, 0, child, 0}));
}

TEST(SwapAction, RevertsCleanlyOnCombLoopRejection) {
  // in -> not1 -> not2 -> reg -> out; swapping not2's parent with reg's
  // parent would wire not1 -> reg and not2 -> not2 (loop) — must revert.
  Graph g("t");
  const auto in = g.add_node(NodeType::kInput, 1);
  const auto n1 = g.add_node(NodeType::kNot, 1);
  const auto n2 = g.add_node(NodeType::kNot, 1);
  const auto r = g.add_node(NodeType::kReg, 1);
  const auto out = g.add_node(NodeType::kOutput, 1);
  g.set_fanin(n1, 0, in);
  g.set_fanin(n2, 0, n1);
  g.set_fanin(r, 0, n2);
  g.set_fanin(out, 0, r);
  const Graph snapshot = g;
  EXPECT_FALSE(apply_swap(g, {n2, 0, r, 0}));
  EXPECT_EQ(g, snapshot);
}

TEST(SwapActionProperty, FuzzedSwapsPreserveDegreesAndAcyclicity) {
  // Property fuzz over random valid graphs: an applied swap preserves
  // every node's in- and out-degree and never closes a combinational
  // loop; a rejected swap leaves the graph byte-identical.
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    Graph g = redundant_circuit(24 + (seed % 3) * 8, seed);
    util::Rng rng(seed ^ 0xf00d);
    ASSERT_FALSE(graph::has_combinational_loop(g));
    const auto in_degree = [](const Graph& gr, graph::NodeId n) {
      std::size_t d = 0;
      for (graph::NodeId p : gr.fanins(n)) d += p != graph::kNoNode;
      return d;
    };
    std::vector<std::size_t> in_before, out_before;
    for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
      in_before.push_back(in_degree(g, i));
      out_before.push_back(g.fanouts(i).size());
    }
    int applied = 0, rejected = 0;
    for (int trial = 0; trial < 300; ++trial) {
      SwapAction a;
      a.child_a = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
      a.child_b = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
      if (g.fanins(a.child_a).empty() || g.fanins(a.child_b).empty()) {
        continue;
      }
      a.slot_a = static_cast<int>(rng.uniform_int(g.fanins(a.child_a).size()));
      a.slot_b = static_cast<int>(rng.uniform_int(g.fanins(a.child_b).size()));
      const Graph snapshot = g;
      if (!apply_swap(g, a)) {
        ++rejected;
        ASSERT_EQ(g, snapshot) << "rejected swap mutated the graph, trial "
                               << trial << " seed " << seed;
        continue;
      }
      ++applied;
      ASSERT_FALSE(graph::has_combinational_loop(g))
          << "trial " << trial << " seed " << seed;
      ASSERT_TRUE(graph::is_valid(g)) << "trial " << trial << " seed " << seed;
      for (graph::NodeId i = 0; i < g.num_nodes(); ++i) {
        ASSERT_EQ(in_degree(g, i), in_before[i]) << "node " << i;
        ASSERT_EQ(g.fanouts(i).size(), out_before[i]) << "node " << i;
      }
    }
    // The fuzzer must exercise both outcomes to mean anything.
    EXPECT_GT(applied, 0) << "seed " << seed;
    EXPECT_GT(rejected, 0) << "seed " << seed;
  }
}

TEST(Mcts, ImprovesObservabilityRewardOnRedundantCircuit) {
  // Reward = fraction of registers observable: MCTS should rewire cones
  // so more registers reach outputs.
  const RewardFn reward = testsupport::observability_reward;
  const Graph start = redundant_circuit(40, 44);
  util::Rng rng(45);
  const MctsConfig cfg{.simulations = 80, .max_depth = 6,
                       .actions_per_state = 8, .max_registers = 4};
  const Graph optimized = optimize_registers(start, cfg, reward, rng);
  EXPECT_TRUE(graph::is_valid(optimized));
  EXPECT_GE(reward(optimized), reward(start));
}

TEST(Mcts, BeatsOrMatchesRandomSearchOnAverage) {
  const RewardFn reward = exact_pcs_reward();
  double mcts_total = 0.0, random_total = 0.0, start_total = 0.0;
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    const Graph start = redundant_circuit(30, seed);
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const MctsConfig cfg{.simulations = 40, .max_depth = 5,
                         .actions_per_state = 6, .max_registers = 3};
    const Graph via_mcts = optimize_registers(start, cfg, reward, rng_a);
    const Graph via_random = random_optimize(start, cfg, reward, rng_b);
    mcts_total += reward(via_mcts);
    random_total += reward(via_random);
    start_total += reward(start);
  }
  EXPECT_GE(mcts_total, start_total);          // never loses ground
  EXPECT_GE(mcts_total, random_total * 0.95);  // competitive with random
}

TEST(Discriminator, CorrelatesWithExactPcs) {
  // Train on a mixed population, verify rank correlation on fresh graphs.
  std::vector<Graph> train;
  for (std::uint64_t s = 60; s < 72; ++s) {
    train.push_back(redundant_circuit(24, s));
  }
  for (auto& d : rtl::make_corpus({.seed = 4})) {
    train.push_back(std::move(d.graph));
  }
  PcsDiscriminator disc(7);
  disc.fit(train, 400);

  std::vector<double> exact, predicted;
  for (std::uint64_t s = 80; s < 88; ++s) {
    const Graph g = redundant_circuit(24, s);
    exact.push_back(synth::synthesize_stats(g).pcs());
    predicted.push_back(disc.predict(g));
  }
  for (auto& d : rtl::make_corpus({.seed = 5})) {
    exact.push_back(synth::synthesize_stats(d.graph).pcs());
    predicted.push_back(disc.predict(d.graph));
  }
  // Spearman rank correlation.
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      r[idx[i]] = static_cast<double>(i);
    }
    return r;
  };
  const auto ra = ranks(exact);
  const auto rb = ranks(predicted);
  double num = 0.0, da = 0.0, db = 0.0;
  const double mean = static_cast<double>(exact.size() - 1) / 2.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    num += (ra[i] - mean) * (rb[i] - mean);
    da += (ra[i] - mean) * (ra[i] - mean);
    db += (rb[i] - mean) * (rb[i] - mean);
  }
  const double spearman = num / std::sqrt(da * db);
  EXPECT_GT(spearman, 0.5) << "discriminator does not track PCS";
}

TEST(Discriminator, RejectsMisuse) {
  PcsDiscriminator disc(1);
  EXPECT_THROW((void)disc.predict(rtl::make_counter(4)), std::logic_error);
  EXPECT_THROW((void)disc.score_batch({}), std::logic_error);
  EXPECT_THROW(disc.fit({}, 10), std::invalid_argument);
}

/// One discriminator fitted on a small mixed population, shared by the
/// batching tests (fitting dominates their runtime).
const PcsDiscriminator& shared_discriminator() {
  static const PcsDiscriminator* disc = [] {
    std::vector<Graph> train;
    for (std::uint64_t s = 60; s < 68; ++s) {
      train.push_back(redundant_circuit(24, s));
    }
    for (auto& d : rtl::make_corpus({.seed = 4})) {
      train.push_back(std::move(d.graph));
    }
    auto* d = new PcsDiscriminator(7);
    d->fit(train, 150);
    return d;
  }();
  return *disc;
}

TEST(Discriminator, ScoreBatchMatchesScalarPredict) {
  const PcsDiscriminator& disc = shared_discriminator();

  // Mixed-size graphs in one batch.
  std::vector<Graph> batch;
  for (std::uint64_t s = 80; s < 84; ++s) {
    batch.push_back(redundant_circuit(16 + (s % 4) * 12, s));
  }
  for (auto& d : rtl::make_corpus({.seed = 5})) {
    batch.push_back(std::move(d.graph));
  }
  const std::vector<double> scores = disc.score_batch(batch);
  ASSERT_EQ(scores.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Bitwise: score_batch runs the fused inference path, predict the
    // tensor path — the kernels guarantee identical arithmetic.
    EXPECT_EQ(scores[i], disc.predict(batch[i])) << "graph " << i;
  }

  // Empty and singleton batches.
  EXPECT_TRUE(disc.score_batch(std::span<const Graph>{}).empty());
  const std::vector<Graph> one{batch.front()};
  const auto single = disc.score_batch(one);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_NEAR(single[0], disc.predict(one[0]), 1e-9);

  // The packaged reward model agrees between scalar and batch paths too,
  // bitwise: MCTS scores states through score(), the batch path.
  const Reward hybrid = hybrid_reward_model(disc);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(hybrid.score(batch[i]), hybrid(batch[i])) << "graph " << i;
  }
}

TEST(Discriminator, ScoreBatchObservabilityMatchesSeparateCalls) {
  const PcsDiscriminator& disc = shared_discriminator();
  std::vector<Graph> batch;
  for (std::uint64_t s = 90; s < 94; ++s) {
    batch.push_back(redundant_circuit(20 + (s % 3) * 10, s));
  }
  for (auto& d : rtl::make_corpus({.seed = 6})) {
    batch.push_back(std::move(d.graph));
  }
  // The hybrid reward's path: one observable mask per state feeds both
  // outputs, each bitwise equal to its separate public call.
  std::vector<double> observable(batch.size(), -1.0);
  const std::vector<double> scores = disc.score_batch(batch, observable);
  EXPECT_EQ(scores, disc.score_batch(batch));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(observable[i], observable_register_fraction(batch[i]))
        << "graph " << i;
  }
  std::vector<double> short_out(batch.size() - 1);
  EXPECT_THROW((void)disc.score_batch(batch, short_out),
               std::invalid_argument);
}

TEST(Mcts, RewardBatchingDoesNotChangeSearchResults) {
  // Whether a reward carries a batch path is a pure throughput choice: the
  // search trajectory and the returned graph must be identical with the
  // batch-backed reward and with the same reward scalar-only.
  const Reward batch_backed = hybrid_reward_model(shared_discriminator());
  const Reward scalar_only = hybrid_reward(shared_discriminator());
  const Graph start = redundant_circuit(32, 95);
  const MctsConfig cfg{.simulations = 48, .max_depth = 6,
                       .actions_per_state = 8, .max_registers = 3,
                       .passes = 1};
  util::Rng rng_scalar(11);
  const Graph unbatched =
      optimize_registers(start, cfg, scalar_only, rng_scalar);
  util::Rng rng_batched(11);
  const Graph batched =
      optimize_registers(start, cfg, batch_backed, rng_batched);
  EXPECT_EQ(unbatched, batched);
  EXPECT_TRUE(graph::is_valid(batched));
}

TEST(Mcts, ObservabilityKeyedRewardDependsOnlyOnTheMask) {
  // The score memo's premise: on the swap-descendants of one graph, states
  // with equal observable masks get bitwise-equal hybrid rewards. This
  // fails if a discriminator feature starts to read something a swap
  // moves.
  const Reward hybrid = hybrid_reward_model(shared_discriminator());
  ASSERT_TRUE(hybrid.keyed_by_observability());
  EXPECT_FALSE(
      Reward(hybrid_reward(shared_discriminator())).keyed_by_observability());
  for (const std::size_t nodes : {60, 80, 100}) {
    Graph g = redundant_circuit(nodes, 400 + nodes);
    util::Rng rng(nodes);
    struct Seen {
      double reward;
      Graph state;
    };
    std::map<std::vector<std::uint64_t>, Seen> by_mask;
    std::vector<std::uint64_t> mask;
    std::vector<graph::NodeId> work;
    int repeats = 0;  // distinct states that share an earlier state's mask
    for (int step = 0; step < 400; ++step) {
      SwapAction a;
      a.child_a = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
      a.child_b = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
      if (g.fanins(a.child_a).empty() || g.fanins(a.child_b).empty()) {
        continue;
      }
      a.slot_a = static_cast<int>(rng.uniform_int(g.fanins(a.child_a).size()));
      a.slot_b = static_cast<int>(rng.uniform_int(g.fanins(a.child_b).size()));
      if (!apply_swap(g, a)) continue;
      graph::observable_mask(g, mask, work);
      const double reward = hybrid.score(g);
      EXPECT_EQ(hybrid(g), reward) << "nodes " << nodes << " step " << step;
      const auto [it, inserted] = by_mask.try_emplace(mask, Seen{reward, g});
      if (inserted) continue;
      EXPECT_EQ(reward, it->second.reward)
          << "nodes " << nodes << " step " << step;
      repeats += g != it->second.state;
    }
    // The walk must revisit masks on different graphs to test anything.
    EXPECT_GT(repeats, 10) << "nodes " << nodes;
    EXPECT_GT(by_mask.size(), 1u) << "nodes " << nodes;
  }
}

TEST(Mcts, ObservabilityMemoDoesNotChangeSearchResults) {
  // The memo only skips re-scoring a mask the call has already scored: the
  // same reward pair without the declared key, scored on every state, must
  // give the same search result, and the keyed search must score fewer
  // states.
  const Reward base = hybrid_reward_model(shared_discriminator());
  std::size_t calls = 0;
  const RewardFn single = [&](const Graph& g) {
    ++calls;
    return base(g);
  };
  const BatchRewardFn batch = [&](std::span<const Graph> gs) {
    calls += gs.size();
    std::vector<double> out;
    for (const Graph& g : gs) out.push_back(base.score(g));
    return out;
  };
  const Reward plain{single, batch};
  const Reward keyed = Reward::observability_keyed(single, batch);
  ASSERT_FALSE(plain.keyed_by_observability());
  const Graph start = redundant_circuit(80, 380);
  for (const int simulations : {40, 500}) {
    const MctsConfig cfg{.simulations = simulations, .max_depth = 8,
                         .actions_per_state = 8, .max_registers = 6,
                         .passes = 2};
    util::Rng rng_plain(simulations);
    calls = 0;
    const Graph unmemoized = optimize_registers(start, cfg, plain, rng_plain);
    const std::size_t plain_calls = calls;
    util::Rng rng_keyed(simulations);
    calls = 0;
    const Graph memoized = optimize_registers(start, cfg, keyed, rng_keyed);
    EXPECT_EQ(unmemoized, memoized) << simulations << " simulations";
    EXPECT_EQ(rng_plain.next(), rng_keyed.next())
        << "the searches drew differently at " << simulations
        << " simulations";
    EXPECT_NE(memoized, start) << simulations << " simulations";
    EXPECT_LT(calls, plain_calls / 2) << simulations << " simulations";
  }
}

TEST(Mcts, PinnedSearchTrajectory) {
  // The production Phase 3 config (server::default_backend_config) on
  // fixed inputs and seeds. Any change to the search trajectory, the swap
  // semantics or the scoring arithmetic moves these digests, and with them
  // every generated dataset; re-record them only when that is the intent.
  // The 500-simulation rows (the paper's budget) were recorded from the
  // search before it memoized scores by observable mask.
  struct Case {
    std::size_t nodes;
    bool hybrid;
    int simulations;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {60, false, 40, 0xb1f1ede7f18ee2ceULL},
      {60, true, 40, 0xb1f1ede7f18ee2ceULL},
      {80, false, 40, 0x871b2384246776ffULL},
      {80, true, 40, 0x543f1299bd2cf7f3ULL},
      {100, false, 40, 0x02aa1d0a69c4a035ULL},
      {100, true, 40, 0x4ae7984735a589ddULL},
      {60, true, 500, 0xb1f1ede7f18ee2ceULL},
      {80, true, 500, 0x673ebe638a3ae32fULL},
      {100, true, 500, 0xd6b7f34869586e77ULL},
  };
  const Reward observability = testsupport::observability_reward;
  const Reward hybrid = hybrid_reward_model(shared_discriminator());
  for (const Case& c : cases) {
    const MctsConfig cfg{.simulations = c.simulations, .max_depth = 8,
                         .actions_per_state = 8, .max_registers = 6,
                         .passes = 2};
    const Graph start = redundant_circuit(c.nodes, 300 + c.nodes);
    util::Rng rng(7 + c.nodes);
    const Graph out =
        optimize_registers(start, cfg, c.hybrid ? hybrid : observability, rng);
    EXPECT_EQ(verilog_digest(out), c.digest)
        << "nodes " << c.nodes << " hybrid " << c.hybrid << " simulations "
        << c.simulations << " digest 0x" << std::hex << verilog_digest(out);
    EXPECT_NE(out, start) << "the search must move for the pin to mean "
                             "anything: nodes "
                          << c.nodes << " hybrid " << c.hybrid
                          << " simulations " << c.simulations;
  }
}

}  // namespace
}  // namespace syn::mcts
