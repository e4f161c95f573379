// Tests for the discrete diffusion framework: schedule algebra, posterior
// consistency, denoiser shapes/asymmetry, and end-to-end overfitting on a
// tiny corpus (the model must learn to reproduce a structure it has seen).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "diffusion/model.hpp"
#include "diffusion/schedule.hpp"
#include "graph/adjacency.hpp"
#include "rtl/generators.hpp"
#include "util/thread_pool.hpp"

namespace syn::diffusion {
namespace {

TEST(Schedule, AlphaBarMonotoneFromOneToNoise) {
  const Schedule s(9, 0.05);
  EXPECT_DOUBLE_EQ(s.alpha_bar(0), 1.0);
  for (int t = 1; t <= 9; ++t) {
    EXPECT_LT(s.alpha_bar(t), s.alpha_bar(t - 1));
    EXPECT_GT(s.alpha(t), 0.0);
    EXPECT_LE(s.alpha(t), 1.0);
  }
  EXPECT_LT(s.alpha_bar(9), 0.05);  // nearly fully corrupted at T
}

TEST(Schedule, ForwardMarginalInterpolates) {
  const Schedule s(9, 0.1);
  // At t=0+ the marginal is near the clean bit, at t=T near the noise.
  EXPECT_NEAR(s.q_t_given_0(1, true), 1.0, 0.15);
  EXPECT_NEAR(s.q_t_given_0(9, true), 0.1, 0.1);
  EXPECT_NEAR(s.q_t_given_0(9, false), 0.1, 0.1);
}

TEST(Schedule, PosteriorRespectsConfidentPredictions) {
  const Schedule s(9, 0.05);
  for (int t = 2; t <= 9; ++t) {
    // Confident "edge" prediction pulls the posterior up, confident
    // "no edge" pulls it down, for either observed state.
    for (const bool at : {false, true}) {
      EXPECT_GT(s.posterior(t, at, 1.0), s.posterior(t, at, 0.0))
          << "t=" << t << " at=" << at;
    }
  }
}

TEST(Schedule, PosteriorAtFinalStepRecoversX0) {
  const Schedule s(9, 0.05);
  // t=1: A_{t-1} = A_0, so the posterior must track p0_hat closely.
  EXPECT_GT(s.posterior(1, true, 0.99), 0.9);
  EXPECT_LT(s.posterior(1, false, 0.01), 0.1);
}

TEST(Schedule, PosteriorIsValidProbability) {
  const Schedule s(9, 0.2);
  for (int t = 1; t <= 9; ++t) {
    for (double p : {0.0, 0.3, 0.7, 1.0}) {
      for (const bool at : {false, true}) {
        const double q = s.posterior(t, at, p);
        EXPECT_GE(q, 0.0);
        EXPECT_LE(q, 1.0);
      }
    }
  }
}

TEST(Schedule, PosteriorMatchesClosedForm) {
  // The two-state D3PM posterior written out from the schedule's public
  // parameters, in the operation order of the precomputed ratios: the two
  // must agree bitwise, or reverse sampling draws different edges.
  for (const auto& [steps, marginal] : {std::pair{6, 0.05}, {9, 0.2}}) {
    const Schedule s(steps, marginal);
    const double m1 = s.noise_marginal();
    // q(A_t = to | A_{t-1} = from) and q(A_t = to | A_0 = x0).
    const auto q_step = [&](int t, bool from, bool to) {
      const double a = s.alpha(t);
      return a * (from == to ? 1.0 : 0.0) + (1.0 - a) * (to ? m1 : 1.0 - m1);
    };
    const auto q_bar = [&](int t, bool x0, bool to) {
      const double ab = s.alpha_bar(t);
      return ab * (x0 == to ? 1.0 : 0.0) + (1.0 - ab) * (to ? m1 : 1.0 - m1);
    };
    const auto closed_form = [&](int t, bool at, double p0_hat) {
      p0_hat = std::clamp(p0_hat, 0.0, 1.0);
      double result = 0.0;
      for (const bool x0 : {false, true}) {
        const double p_x0 = x0 ? p0_hat : 1.0 - p0_hat;
        if (p_x0 <= 0.0) continue;
        const double w1 = q_step(t, true, at) * q_bar(t - 1, x0, true);
        const double w0 = q_step(t, false, at) * q_bar(t - 1, x0, false);
        const double denom = w0 + w1;
        if (denom > 0.0) result += p_x0 * (w1 / denom);
      }
      return std::clamp(result, 0.0, 1.0);
    };
    const double inf = std::numeric_limits<double>::infinity();
    const double p0_hats[] = {0.0,
                              1.0,
                              std::nextafter(0.0, 1.0),
                              1e-12,
                              std::nextafter(1.0, 0.0),
                              1.0 - 1e-12,
                              0.5,
                              -0.25,
                              1.25,
                              -inf,
                              inf};
    for (int t = 1; t <= steps; ++t) {
      for (const bool at : {false, true}) {
        for (const double p0_hat : p0_hats) {
          EXPECT_EQ(s.posterior(t, at, p0_hat), closed_form(t, at, p0_hat))
              << "steps " << steps << " t " << t << " at " << at
              << " p0_hat " << p0_hat;
        }
      }
    }
  }
}

TEST(Schedule, PosteriorRangeContainsEveryPosterior) {
  // Reverse sampling settles a pair without its logit when the pair's
  // uniform falls outside posterior_range(t, at), so every posterior a
  // logit can produce must lie inside that range, rounding included.
  std::vector<double> p0_hats{0.0,
                              std::numeric_limits<double>::denorm_min(),
                              1e-300,
                              std::nextafter(0.5, 0.0),
                              0.5,
                              std::nextafter(0.5, 1.0),
                              1.0 - std::numeric_limits<double>::epsilon(),
                              1.0};
  util::Rng rng(26);
  for (int i = 0; i < 10000; ++i) p0_hats.push_back(rng.uniform());
  for (const int steps : {1, 6, 9}) {
    for (const double marginal : {1e-4, 0.02, 0.3}) {
      const Schedule s(steps, marginal);
      for (int t = 1; t <= steps; ++t) {
        for (const bool at : {false, true}) {
          const Schedule::PosteriorRange range = s.posterior_range(t, at);
          for (const double p0_hat : p0_hats) {
            const double q = s.posterior(t, at, p0_hat);
            ASSERT_LE(range.lo, q) << "steps " << steps << " marginal "
                                   << marginal << " t " << t << " at " << at
                                   << " p0_hat " << p0_hat;
            ASSERT_GE(range.hi, q) << "steps " << steps << " marginal "
                                   << marginal << " t " << t << " at " << at
                                   << " p0_hat " << p0_hat;
          }
        }
      }
      // t = 1 recovers A_0: no uniform in [0, 1) is settled, so the last
      // step decodes every pair and P_E^(0) is complete.
      for (const bool at : {false, true}) {
        const Schedule::PosteriorRange range = s.posterior_range(1, at);
        EXPECT_LE(range.lo, 0.0) << "steps " << steps << " at " << at;
        EXPECT_GE(range.hi, 1.0) << "steps " << steps << " at " << at;
      }
    }
  }
}

TEST(Schedule, RejectsBadParameters) {
  EXPECT_THROW(Schedule(0, 0.1), std::invalid_argument);
  EXPECT_THROW(Schedule(5, 0.0), std::invalid_argument);
  EXPECT_THROW(Schedule(5, 1.0), std::invalid_argument);
}

TEST(Denoiser, ShapesAndDeterminism) {
  util::Rng rng(3);
  Denoiser den({.mpnn_layers = 2, .hidden = 16, .time_dim = 8}, rng);
  const auto g = rtl::make_counter(4);
  const auto attrs = graph::attrs_of(g);
  const auto adj = graph::to_adjacency(g);
  const auto features = Denoiser::node_features(attrs);
  const auto parents = Denoiser::parent_lists(adj);
  const auto h1 = den.encode(features, parents, 3);
  const auto h2 = den.encode(features, parents, 3);
  EXPECT_EQ(h1.rows(), g.num_nodes());
  EXPECT_EQ(h1.cols(), 16u);
  EXPECT_EQ(h1.value().data(), h2.value().data());

  const std::vector<Pair> pairs{{0, 1}, {1, 0}, {2, 3}};
  const auto logits = den.decode(h1, pairs, {1, 0, 1}, 3);
  EXPECT_EQ(logits.rows(), 3u);
  EXPECT_EQ(logits.cols(), 1u);
}

TEST(Denoiser, AsymmetricDecoderDistinguishesDirection) {
  util::Rng rng(4);
  Denoiser den({.mpnn_layers = 2, .hidden = 16, .time_dim = 8}, rng);
  const auto g = rtl::make_fifo_ctrl(3);
  const auto h = den.encode(Denoiser::node_features(graph::attrs_of(g)),
                            Denoiser::parent_lists(graph::to_adjacency(g)), 2);
  // Score (i, j) and (j, i) for several pairs; the translated-embedding
  // decoder must not be forced to produce equal values.
  double diff = 0.0;
  const std::vector<Pair> fwd{{0, 5}, {1, 6}, {2, 7}};
  const std::vector<Pair> rev{{5, 0}, {6, 1}, {7, 2}};
  const auto lf = den.decode(h, fwd, {0, 0, 0}, 2);
  const auto lr = den.decode(h, rev, {0, 0, 0}, 2);
  for (std::size_t k = 0; k < fwd.size(); ++k) {
    diff += std::abs(lf.value()[k] - lr.value()[k]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(Denoiser, SymmetricAblationIsDirectionBlind) {
  util::Rng rng(4);
  Denoiser den(
      {.mpnn_layers = 2, .hidden = 16, .time_dim = 8, .symmetric_decoder = true},
      rng);
  // With identical node embeddings H_i == H_j the symmetric decoder gives
  // identical scores both ways; check via duplicate-feature nodes.
  nn::Matrix features(2, Denoiser::feature_dim());
  features.at(0, 0) = 1.0f;
  features.at(1, 0) = 1.0f;
  const auto h = den.encode(features, {{}, {}}, 1);
  const auto l1 = den.decode(h, {{0, 1}}, {0}, 1);
  const auto l2 = den.decode(h, {{1, 0}}, {0}, 1);
  EXPECT_FLOAT_EQ(l1.value()[0], l2.value()[0]);
}

TEST(Denoiser, PredictBitwiseEqualsScalarPath) {
  util::Rng rng(6);
  Denoiser den({.mpnn_layers = 3, .hidden = 16, .time_dim = 8}, rng);
  // Real circuits of different sizes, one graph per call: the fused
  // forward must reproduce the tensor path's logits row for row.
  for (const auto& g :
       {rtl::make_counter(4), rtl::make_fifo_ctrl(3), rtl::make_counter(6)}) {
    const auto adj = graph::to_adjacency(g);
    const nn::Matrix features = Denoiser::node_features(graph::attrs_of(g));
    const auto parents = Denoiser::parent_lists(adj);
    std::vector<Pair> pairs;
    std::vector<std::uint8_t> state;
    for (std::uint32_t i = 0; i < g.num_nodes(); ++i) {
      for (std::uint32_t j = 0; j < g.num_nodes(); ++j) {
        if (i != j) {
          pairs.push_back({i, j});
          state.push_back(adj.at(i, j) ? 1 : 0);
        }
      }
    }
    for (const int t : {1, 3}) {
      const nn::Matrix fused = den.predict(features, parents, pairs, state, t);
      const auto scalar =
          den.decode(den.encode(features, parents, t), pairs, state, t);
      ASSERT_EQ(fused.rows(), pairs.size());
      ASSERT_EQ(fused.cols(), 1u);
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        // Bitwise equality: EXPECT_EQ on floats, not EXPECT_NEAR.
        EXPECT_EQ(fused.at(p, 0), scalar.value()[p])
            << g.num_nodes() << " nodes, pair " << p << " t=" << t;
      }
    }
  }
}

TEST(DiffusionModel, SampleBatchBitIdenticalToSequentialScalar) {
  DiffusionConfig cfg;
  cfg.steps = 4;
  cfg.denoiser = {.mpnn_layers = 2, .hidden = 12, .time_dim = 8};
  cfg.epochs = 5;
  cfg.seed = 21;
  DiffusionModel model(cfg);
  model.train({rtl::make_counter(4), rtl::make_fifo_ctrl(2)});

  // Attribute sets of different sizes, cycled across the chains.
  const std::vector<graph::NodeAttrs> attr_pool{
      graph::attrs_of(rtl::make_counter(4)),
      graph::attrs_of(rtl::make_fifo_ctrl(2)),
      graph::attrs_of(rtl::make_counter(6))};

  for (const std::size_t chains : {1UL, 4UL, 9UL}) {
    std::vector<graph::NodeAttrs> attrs;
    for (std::size_t c = 0; c < chains; ++c) {
      attrs.push_back(attr_pool[c % attr_pool.size()]);
    }
    const auto seeds = util::split_streams(777, chains);

    std::vector<util::Rng> rngs;
    for (std::size_t c = 0; c < chains; ++c) rngs.emplace_back(seeds[c]);
    const auto batched = model.sample_batch(attrs, rngs);
    ASSERT_EQ(batched.size(), chains);

    for (std::size_t c = 0; c < chains; ++c) {
      util::Rng rng(seeds[c]);  // the chain's own stream, replayed
      const auto scalar = model.sample(attrs[c], rng);
      EXPECT_EQ(batched[c].adjacency, scalar.adjacency)
          << "K=" << chains << " chain " << c;
      ASSERT_EQ(batched[c].edge_prob.data().size(),
                scalar.edge_prob.data().size());
      for (std::size_t i = 0; i < scalar.edge_prob.data().size(); ++i) {
        EXPECT_EQ(batched[c].edge_prob.data()[i], scalar.edge_prob.data()[i])
            << "K=" << chains << " chain " << c << " entry " << i;
      }
    }
  }
}

TEST(DiffusionModel, SampleBatchStepWithNoPairToDecode) {
  // A 2-node chain often settles both of its pairs from their uniforms,
  // so a step's denoiser forward gets no pair to decode. The draws must
  // still match sample(), and the stats must show such a step happened.
  DiffusionConfig cfg;
  cfg.steps = 4;
  cfg.denoiser = {.mpnn_layers = 2, .hidden = 8, .time_dim = 8};
  cfg.epochs = 2;
  DiffusionModel model(cfg);
  model.train({rtl::make_counter(4)});
  graph::NodeAttrs attrs;
  attrs.types = {graph::NodeType::kInput, graph::NodeType::kOutput};
  attrs.widths = {4, 4};
  bool saw_empty_step = false;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng batch_rng(seed);
    SampleStats stats;
    const auto batched =
        model.sample_batch({&attrs, 1}, {&batch_rng, 1}, &stats);
    util::Rng rng(seed);
    const auto scalar = model.sample(attrs, rng);
    EXPECT_EQ(batched[0].adjacency, scalar.adjacency) << "seed " << seed;
    EXPECT_EQ(batched[0].edge_prob.data(), scalar.edge_prob.data())
        << "seed " << seed;
    EXPECT_EQ(batch_rng.next(), rng.next()) << "seed " << seed;
    ASSERT_EQ(stats.scored.size(), 4u);
    EXPECT_EQ(stats.pairs, 2u);
    EXPECT_EQ(stats.scored[0], 2u) << "seed " << seed;
    for (const std::size_t scored : stats.scored) {
      saw_empty_step = saw_empty_step || scored == 0;
    }
  }
  EXPECT_TRUE(saw_empty_step);
}

TEST(DiffusionModel, SampleBatchRejectsMismatchedSpans) {
  DiffusionConfig cfg;
  cfg.steps = 3;
  cfg.denoiser = {.mpnn_layers = 2, .hidden = 8, .time_dim = 8};
  cfg.epochs = 1;
  DiffusionModel model(cfg);
  model.train({rtl::make_counter(4)});
  std::vector<graph::NodeAttrs> attrs{graph::attrs_of(rtl::make_counter(4))};
  std::vector<util::Rng> rngs;  // empty: sizes differ
  EXPECT_THROW(model.sample_batch(attrs, rngs), std::invalid_argument);
}

TEST(DiffusionModel, TrainingLossDecreases) {
  DiffusionConfig cfg;
  cfg.steps = 5;
  cfg.denoiser = {.mpnn_layers = 2, .hidden = 16, .time_dim = 8};
  cfg.epochs = 25;
  cfg.seed = 9;
  DiffusionModel model(cfg);
  const std::vector<graph::Graph> corpus{rtl::make_counter(6),
                                         rtl::make_fifo_ctrl(3)};
  const auto stats = model.train(corpus);
  ASSERT_EQ(stats.epoch_loss.size(), 25u);
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 5; ++i) {
    early += stats.epoch_loss[static_cast<std::size_t>(i)];
    late += stats.epoch_loss[stats.epoch_loss.size() - 1 - static_cast<std::size_t>(i)];
  }
  EXPECT_LT(late, early);
}

TEST(DiffusionModel, SampleShapesAndDensity) {
  DiffusionConfig cfg;
  cfg.steps = 4;
  cfg.denoiser = {.mpnn_layers = 2, .hidden = 12, .time_dim = 8};
  cfg.epochs = 10;
  cfg.seed = 10;
  DiffusionModel model(cfg);
  const auto g = rtl::make_counter(8);
  model.train({g});
  util::Rng rng(1);
  const auto attrs = graph::attrs_of(g);
  const auto sample = model.sample(attrs, rng);
  EXPECT_EQ(sample.adjacency.size(), attrs.size());
  EXPECT_EQ(sample.edge_prob.rows(), attrs.size());
  // Density within an order of magnitude of the training density: the
  // marginal-preserving noise anchors it.
  const double train_density =
      static_cast<double>(g.num_edges()) /
      static_cast<double>(g.num_nodes() * g.num_nodes());
  const double sample_density =
      static_cast<double>(sample.adjacency.num_edges()) /
      static_cast<double>(attrs.size() * attrs.size());
  EXPECT_LT(sample_density, train_density * 10 + 0.05);
  // Diagonal stays empty.
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    EXPECT_FALSE(sample.adjacency.at(i, i));
  }
}

TEST(DiffusionModel, SampleBeforeTrainThrows) {
  DiffusionModel model(DiffusionConfig{});
  util::Rng rng(1);
  graph::NodeAttrs attrs;
  attrs.types = {graph::NodeType::kInput, graph::NodeType::kOutput};
  attrs.widths = {1, 1};
  EXPECT_THROW(model.sample(attrs, rng), std::logic_error);
}

}  // namespace
}  // namespace syn::diffusion
