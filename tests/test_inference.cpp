// Fused-vs-tensor bitwise equivalence suite for the inference engine
// (nn/inference.hpp): register-blocked matmul, arena lifecycle, PackedMlp/PackedGru
// across every Activation, batch sizes 0/1/odd, mixed widths, shared
// packed weights across threads (TSan tier), and the SYN_SIMD_LEVEL
// dispatch sweep — every tier the host supports must be bitwise identical
// to the tensor path (also registered in the UBSan tier, which catches
// misaligned vector loads).
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "diffusion/denoiser.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace syn::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  // Sprinkle exact zeros so the zero-skip branch in the matmul kernels is
  // exercised (it changes the accumulation *sequence* if mishandled).
  for (std::size_t i = 0; i < m.size(); i += 7) m[i] = 0.0f;
  return m;
}

void expect_bitwise_equal(const float* fused, const Matrix& tensor) {
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    EXPECT_EQ(fused[i], tensor[i]) << "element " << i;
  }
}

TEST(MatmulRows, TiledMatchesTensorMatmulBitwise) {
  util::Rng rng(301);
  // Ragged shape: 37 rows leave a partial row block and 129 columns a
  // scalar column tail at every vector width.
  const Matrix a = random_matrix(37, 513, rng);
  const Matrix b = random_matrix(513, 129, rng);
  const Matrix reference = matmul(a, b);

  std::vector<float> c(a.rows() * b.cols(), -1.0f);
  matmul_rows(a.data().data(), a.rows(), a.cols(), b.data().data(), b.cols(),
              c.data());
  expect_bitwise_equal(c.data(), reference);
}

TEST(Arena, GrowsReusesAndRewinds) {
  InferenceArena arena;
  float* first = arena.alloc(100);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % 64, 0u);
  const InferenceArena::Mark mark = arena.mark();
  float* scratch = arena.alloc(50);
  arena.rewind(mark);
  EXPECT_EQ(arena.alloc(50), scratch);  // rewound space is handed back

  arena.reset();
  EXPECT_EQ(arena.alloc(100), first);  // reset reuses from the start

  // Capacity grows monotonically and alloc(0) stays valid and distinct.
  const std::size_t cap = arena.capacity_floats();
  float* big = arena.alloc(100000);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.capacity_floats(), cap + 100000);
  EXPECT_NE(arena.alloc(0), arena.alloc(0));
}

TEST(PackedMlp, BitwiseEqualsTensorForwardAcrossActivations) {
  for (const Activation act : {Activation::kRelu, Activation::kTanh,
                               Activation::kSigmoid, Activation::kNone}) {
    util::Rng rng(401 + static_cast<int>(act));
    const Mlp mlp({9, 17, 8, 3}, rng, act);
    const PackedMlp packed(mlp);
    InferenceArena arena;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
      const Matrix x = random_matrix(batch, 9, rng);
      NoGradGuard guard;
      const Matrix reference = mlp.forward(Tensor(x)).value();
      arena.reset();
      const float* fused = packed.forward_rows(arena, x.data().data(), batch);
      expect_bitwise_equal(fused, reference);
    }
  }
}

TEST(PackedMlp, EmptyBatchIsSafe) {
  util::Rng rng(402);
  const Mlp mlp({4, 6, 2}, rng);
  const PackedMlp packed(mlp);
  InferenceArena arena;
  // The tensor path asserts on B=0; the fused path must just no-op.
  EXPECT_NE(packed.forward_rows(arena, nullptr, 0), nullptr);
}

TEST(PackedMlp, MixedWidthsAndForcedTilingStayBitwise) {
  util::Rng rng(403);
  for (const std::vector<std::size_t>& dims :
       {std::vector<std::size_t>{3, 31, 1},
        std::vector<std::size_t>{16, 301, 64, 2},
        std::vector<std::size_t>{1, 5, 7}}) {
    const Mlp mlp(dims, rng, Activation::kTanh);
    const PackedMlp packed(mlp);
    InferenceArena arena;
    const Matrix x = random_matrix(7, dims.front(), rng);
    NoGradGuard guard;
    const Matrix reference = mlp.forward(Tensor(x)).value();
    const float* fused = packed.forward_rows(arena, x.data().data(), x.rows());
    expect_bitwise_equal(fused, reference);
  }
}

TEST(PackedMlp, ArenaReuseAcrossCallsDoesNotChangeResults) {
  util::Rng rng(404);
  const Mlp mlp({8, 20, 4}, rng, Activation::kSigmoid);
  const PackedMlp packed(mlp);
  const Matrix x = random_matrix(5, 8, rng);

  InferenceArena arena;
  const float* out = packed.forward_rows(arena, x.data().data(), 5);
  const std::vector<float> first(out, out + 5 * 4);

  // Dirty the arena with a differently-shaped forward, then rerun.
  const Matrix other = random_matrix(11, 8, rng);
  arena.reset();
  (void)packed.forward_rows(arena, other.data().data(), 11);
  arena.reset();
  out = packed.forward_rows(arena, x.data().data(), 5);
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(out[i], first[i]);
}

TEST(PackedGru, BitwiseEqualsTensorForwardMultiStep) {
  util::Rng rng(405);
  const GruCell cell(7, 12, rng);
  const PackedGru packed(cell);
  EXPECT_EQ(packed.input_dim(), 7u);
  EXPECT_EQ(packed.hidden_dim(), 12u);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{3}}) {
    Matrix h_tensor(batch, 12);
    std::vector<float> h_fused(batch * 12, 0.0f);
    InferenceArena arena;
    for (int step = 0; step < 4; ++step) {
      const Matrix x = random_matrix(batch, 7, rng);
      NoGradGuard guard;
      h_tensor = cell.forward(Tensor(x), Tensor(h_tensor)).value();
      arena.reset();
      const float* next =
          packed.forward_rows(arena, x.data().data(), h_fused.data(), batch);
      expect_bitwise_equal(next, h_tensor);
      std::copy(next, next + h_fused.size(), h_fused.begin());
    }
  }
}

// Shared read-only packed weights, one arena per thread: the concurrency
// contract of every scoring call site. Run under TSan in CI.
TEST(Inference, SharedPackedModelAcrossThreadsMatchesTensor) {
  util::Rng rng(406);
  const Mlp mlp({6, 24, 4}, rng);
  const PackedMlp packed(mlp);

  constexpr int kThreads = 4;
  std::vector<Matrix> inputs;
  std::vector<Matrix> references;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(random_matrix(3, 6, rng));
    NoGradGuard guard;
    references.push_back(mlp.forward(Tensor(inputs.back())).value());
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      InferenceArena arena;  // per-thread, like the rewired call sites
      for (int iter = 0; iter < 32; ++iter) {
        arena.reset();
        const float* out =
            packed.forward_rows(arena, inputs[t].data().data(), 3);
        for (std::size_t i = 0; i < references[t].size(); ++i) {
          if (out[i] != references[t][i]) ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(Arena, LiveFloatsTracksConsumption) {
  InferenceArena arena;
  EXPECT_EQ(arena.live_floats(), 0u);
  arena.alloc(100);
  EXPECT_EQ(arena.live_floats(), 100u);
  arena.alloc(50);
  EXPECT_EQ(arena.live_floats(), 150u);
  arena.reset();
  EXPECT_EQ(arena.live_floats(), 0u);
  // Spanning into a second slab counts the first slab's full size
  // (consumed, fragmentation included).
  arena.alloc(100);
  arena.alloc(100000);
  EXPECT_GE(arena.live_floats(), 100100u);
}

TEST(Arena, ShrinkReleasesHighWaterMark) {
  InferenceArena arena;
  arena.alloc(200000);  // one big batch grows the arena...
  arena.reset();
  arena.alloc(1000);  // ...then the workload drops back down
  const std::size_t used = arena.live_floats();
  ASSERT_GE(arena.capacity_floats(), 200000u);
  arena.shrink(used);
  // Footprint follows the workload down (to the 4096-float slab floor).
  EXPECT_LE(arena.capacity_floats(), 4096u);
  // And the arena still serves the small workload without corruption.
  float* p = arena.alloc(1000);
  ASSERT_NE(p, nullptr);
  p[0] = 1.0f;
  p[999] = 2.0f;
  EXPECT_EQ(p[0], 1.0f);
  EXPECT_EQ(p[999], 2.0f);
}

TEST(Arena, ShrinkIsNoopChurnBelowTheFloor) {
  InferenceArena arena;
  arena.alloc(10);
  const std::size_t cap = arena.capacity_floats();
  float* first = arena.alloc(0);
  arena.shrink();
  EXPECT_EQ(arena.capacity_floats(), cap);  // no slab was released...
  arena.alloc(10);
  EXPECT_EQ(arena.alloc(0), first);  // ...but the cursor was reset
}

// --- SIMD dispatch -----------------------------------------------------------

TEST(SimdLevel, ToStringParseRoundtrip) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSse2,
                                SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    SimdLevel parsed;
    ASSERT_TRUE(parse_simd_level(to_string(level), parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdLevel parsed;
  EXPECT_FALSE(parse_simd_level("neon", parsed));
  EXPECT_FALSE(parse_simd_level("", parsed));
  EXPECT_FALSE(parse_simd_level(nullptr, parsed));
}

TEST(SimdLevel, ActiveIsWithinHostSupport) {
  EXPECT_LE(active_simd_level(), max_supported_simd_level());
  EXPECT_STREQ(active_simd_level_name(), to_string(active_simd_level()));
}

/// Sweeps every tier the host supports via the SYN_SIMD_LEVEL override
/// (the process-start resolution path), restoring the default on exit.
class SimdLevelSweep : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("SYN_SIMD_LEVEL");
    refresh_simd_level();
  }

  static std::vector<SimdLevel> host_levels() {
    std::vector<SimdLevel> out;
    for (int l = 0; l <= static_cast<int>(max_supported_simd_level()); ++l) {
      out.push_back(static_cast<SimdLevel>(l));
    }
    return out;
  }

  static SimdLevel use(SimdLevel level) {
    ::setenv("SYN_SIMD_LEVEL", to_string(level), 1);
    return refresh_simd_level();
  }
};

TEST_F(SimdLevelSweep, EnvOverrideSelectsEachSupportedTier) {
  for (const SimdLevel level : host_levels()) {
    EXPECT_EQ(use(level), level);
    EXPECT_EQ(active_simd_level(), level);
  }
}

TEST_F(SimdLevelSweep, OverridesClampAndIgnoreGarbage) {
  // A request above host support clamps down instead of crashing on
  // unsupported instructions.
  ::setenv("SYN_SIMD_LEVEL", "avx512", 1);
  EXPECT_LE(refresh_simd_level(), max_supported_simd_level());
  EXPECT_EQ(set_simd_level(SimdLevel::kAvx512),
            max_supported_simd_level() < SimdLevel::kAvx512
                ? max_supported_simd_level()
                : SimdLevel::kAvx512);
  // Unparseable values fall back to the widest supported tier.
  ::setenv("SYN_SIMD_LEVEL", "turbo", 1);
  EXPECT_EQ(refresh_simd_level(), max_supported_simd_level());
}

TEST_F(SimdLevelSweep, MatmulRowsBitwiseIdenticalAcrossTiers) {
  util::Rng rng(501);
  // Ragged shapes: 129 and 37 are not multiples of any vector width, so
  // every tier exercises its scalar column tail and leftover rows.
  const Matrix a = random_matrix(37, 513, rng);
  const Matrix b = random_matrix(513, 129, rng);
  const Matrix reference = matmul(a, b);

  for (const SimdLevel level : host_levels()) {
    ASSERT_EQ(use(level), level);
    std::vector<float> c(a.rows() * b.cols(), -1.0f);
    matmul_rows(a.data().data(), a.rows(), a.cols(), b.data().data(),
                b.cols(), c.data());
    expect_bitwise_equal(c.data(), reference);
  }
}

TEST_F(SimdLevelSweep, MlpForwardBitwiseIdenticalAcrossTiers) {
  util::Rng rng(502);
  const Mlp mlp({9, 33, 17, 3}, rng, Activation::kRelu);  // ragged widths
  const PackedMlp packed(mlp);
  const Matrix x = random_matrix(6, 9, rng);
  NoGradGuard guard;
  const Matrix reference = mlp.forward(Tensor(x)).value();
  for (const SimdLevel level : host_levels()) {
    ASSERT_EQ(use(level), level);
    InferenceArena arena;
    const float* fused = packed.forward_rows(arena, x.data().data(), 6);
    expect_bitwise_equal(fused, reference);
  }
}

TEST_F(SimdLevelSweep, GruForwardBitwiseIdenticalAcrossTiers) {
  util::Rng rng(503);
  const GruCell cell(7, 19, rng);  // 19: scalar tails in every tier
  const PackedGru packed(cell);
  const std::size_t batch = 3;
  std::vector<Matrix> x_steps;
  for (int step = 0; step < 4; ++step) {
    x_steps.push_back(random_matrix(batch, 7, rng));
  }
  Matrix h_tensor(batch, 19);
  std::vector<Matrix> references;
  for (const Matrix& x : x_steps) {
    NoGradGuard guard;
    h_tensor = cell.forward(Tensor(x), Tensor(h_tensor)).value();
    references.push_back(h_tensor);
  }
  for (const SimdLevel level : host_levels()) {
    ASSERT_EQ(use(level), level);
    InferenceArena arena;
    std::vector<float> h(batch * 19, 0.0f);
    for (std::size_t step = 0; step < x_steps.size(); ++step) {
      arena.reset();
      const float* next = packed.forward_rows(
          arena, x_steps[step].data().data(), h.data(), batch);
      expect_bitwise_equal(next, references[step]);
      std::copy(next, next + h.size(), h.begin());
    }
  }
}

// The register-blocked kernel against nn::matmul, bit for bit, over
// shapes that hit every row block (8) and leftover row, every
// column-group count (1-4 per block, more than one block) and the scalar
// column tail at every vector width. A carries exact +0 and -0; the B
// rows behind all-zero A columns carry +inf, -inf and NaN, which the
// skipping reference never reads — so the kernel's masked +0 must equal a
// skip even where a plain multiply would make NaN.
TEST_F(SimdLevelSweep, MatmulRowsBlockedMatchesSkippingReference) {
  util::Rng rng(505);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {inf, -inf, std::numeric_limits<float>::quiet_NaN()};
  for (const SimdLevel level : host_levels()) {
    ASSERT_EQ(use(level), level);
    for (const std::size_t rows : {1, 7, 8, 9, 17}) {
      for (const std::size_t k_dim : {1, 24, 49}) {
        for (const std::size_t n : {1, 3, 15, 16, 17, 32, 33, 64, 65}) {
          Matrix a(rows, k_dim);
          Matrix b(k_dim, n);
          for (std::size_t k = 0; k < k_dim; ++k) {
            const bool zero_column = k % 5 == 2;
            for (std::size_t i = 0; i < rows; ++i) {
              const std::size_t pick = rng.uniform_int(3);
              float v = static_cast<float>(rng.uniform(-2.0, 2.0));
              if (zero_column || pick == 0) v = (i + k) % 2 ? -0.0f : 0.0f;
              a.at(i, k) = v;
            }
            for (std::size_t j = 0; j < n; ++j) {
              b.at(k, j) = zero_column
                               ? specials[(j + k) % 3]
                               : static_cast<float>(rng.uniform(-2.0, 2.0));
            }
          }
          const Matrix reference = matmul(a, b);
          std::vector<float> c(rows * n, -1.0f);
          matmul_rows(a.data().data(), rows, k_dim, b.data().data(), n,
                      c.data());
          for (std::size_t e = 0; e < c.size(); ++e) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(c[e]),
                      std::bit_cast<std::uint32_t>(reference[e]))
                << to_string(level) << " rows " << rows << " k " << k_dim
                << " n " << n << " element " << e;
          }
        }
      }
    }
  }
}

// predict() builds and scores pair rows one 128-row tile at a time. Every
// logit must equal the tensor path's encode + decode at every host tier:
// on a graph smaller than one tile (5 nodes, 20 pairs) and on one spanning
// several with a ragged last tile (19 nodes, 342 pairs = 2 x 128 + 86),
// for all pairs, for a non-contiguous subset (what lazy decoding sends at
// t > 1; 228 of the 342 pairs), and for no pair at all. Both the
// production shape and an odd one (hidden 12, time_dim 8), whose rows end
// in every vector tier's scalar tail, are checked.
TEST_F(SimdLevelSweep, DenoiserDecodeTilesMatchScalarPath) {
  util::Rng rng(506);
  for (const diffusion::DenoiserConfig config :
       {diffusion::DenoiserConfig{
            .mpnn_layers = 3, .hidden = 32, .time_dim = 16},
        diffusion::DenoiserConfig{
            .mpnn_layers = 2, .hidden = 12, .time_dim = 8}}) {
    const diffusion::Denoiser denoiser(config, rng);
    for (const std::size_t n : {std::size_t{5}, std::size_t{19}}) {
      const Matrix features =
          random_matrix(n, diffusion::Denoiser::feature_dim(), rng);
      std::vector<std::vector<std::size_t>> parents(n);
      struct Query {
        std::vector<diffusion::Pair> pairs;
        std::vector<std::uint8_t> state;
      };
      Query all;
      Query subset;  // drops every third pair
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          const bool edge = rng.uniform(0.0, 1.0) < 0.2;
          if (edge) parents[j].push_back(i);
          const diffusion::Pair pair{static_cast<std::uint32_t>(i),
                                     static_cast<std::uint32_t>(j)};
          if (all.pairs.size() % 3 != 1) {
            subset.pairs.push_back(pair);
            subset.state.push_back(edge ? 1 : 0);
          }
          all.pairs.push_back(pair);
          all.state.push_back(edge ? 1 : 0);
        }
      }

      for (const int t : {1, 3, 6}) {
        for (const Query* q : {&all, &subset}) {
          Matrix reference;
          {
            NoGradGuard guard;
            const Tensor h = denoiser.encode(features, parents, t);
            reference = denoiser.decode(h, q->pairs, q->state, t).value();
          }
          for (const SimdLevel level : host_levels()) {
            ASSERT_EQ(use(level), level);
            const Matrix got =
                denoiser.predict(features, parents, q->pairs, q->state, t);
            ASSERT_EQ(got.rows(), q->pairs.size());
            ASSERT_EQ(got.cols(), 1u);
            for (std::size_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                        std::bit_cast<std::uint32_t>(reference[i]))
                  << n << " nodes, " << q->pairs.size() << " pairs, hidden "
                  << config.hidden << ", pair " << i << " t " << t
                  << " tier " << to_string(level);
            }
          }
        }
        // No pair to decode: a step whose uniforms settled every draw.
        for (const SimdLevel level : host_levels()) {
          ASSERT_EQ(use(level), level);
          const Matrix none = denoiser.predict(features, parents, {}, {}, t);
          EXPECT_EQ(none.rows(), 0u) << "tier " << to_string(level);
          EXPECT_EQ(none.cols(), 1u) << "tier " << to_string(level);
        }
      }
    }
  }
}

// The denoiser's predict() runs on the unified PackedMlp path; its logits
// on each of three small graphs must be bitwise stable across every tier,
// with the scalar tier as the reference.
TEST_F(SimdLevelSweep, DenoiserPredictBatchBitwiseIdenticalAcrossTiers) {
  util::Rng rng(504);
  diffusion::Denoiser denoiser(
      {.mpnn_layers = 2, .hidden = 12, .time_dim = 8}, rng);

  // Three small graphs with distinct shapes and parent structure.
  for (const std::size_t n : {std::size_t{4}, std::size_t{7}, std::size_t{5}}) {
    const Matrix features =
        random_matrix(n, diffusion::Denoiser::feature_dim(), rng);
    std::vector<std::vector<std::size_t>> parents(n);
    for (std::size_t j = 1; j < n; ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (rng.uniform(0.0, 1.0) < 0.5) parents[j].push_back(i);
      }
    }
    std::vector<diffusion::Pair> pairs;
    std::vector<std::uint8_t> state;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      pairs.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(i + 1)});
      state.push_back(static_cast<std::uint8_t>(i % 2));
    }

    ASSERT_EQ(use(SimdLevel::kScalar), SimdLevel::kScalar);
    const Matrix reference =
        denoiser.predict(features, parents, pairs, state, 3);
    for (const SimdLevel level : host_levels()) {
      ASSERT_EQ(use(level), level);
      const Matrix got = denoiser.predict(features, parents, pairs, state, 3);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], reference[i])
            << n << " nodes, logit " << i << " tier " << to_string(level);
      }
    }
  }
}

}  // namespace
}  // namespace syn::nn
