// Tests for the utility layer: RNG statistical sanity and determinism,
// table formatting, summaries, and the hand-rolled JSON used by the
// daemon protocol.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace syn::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  Rng child1 = parent.fork(3);
  parent.next();
  // fork() depends only on parent state at fork time; consume after fork
  // must not matter for a fork taken earlier.
  Rng parent2(7);
  Rng child2 = parent2.fork(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child1.next(), child2.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_GE(lo, 0.0);
  EXPECT_LT(hi, 1.0);
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng(12);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(14);
  double sum = 0.0, sq = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.03);
  EXPECT_NEAR(sq / kSamples, 1.0, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(15);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 8000; ++i) {
    const auto idx = rng.weighted_index(weights);
    ASSERT_LT(idx, 3u);
    ++counts[idx];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, WeightedIndexZeroTotalSignalsFailure) {
  Rng rng(16);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(weights), weights.size());
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  const auto sample = rng.sample_without_replacement(20, 8);
  EXPECT_EQ(sample.size(), 8u);
  EXPECT_EQ(std::set<std::size_t>(sample.begin(), sample.end()).size(), 8u);
  // Requesting more than available truncates.
  EXPECT_EQ(rng.sample_without_replacement(3, 10).size(), 3u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(18);
  std::vector<int> v{1, 2, 3, 4, 5};
  auto copy = v;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Table, AlignsAndPads) {
  Table t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  t.add_row({"z"});  // short row padded
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| xx | y    |"), std::string::npos);
  EXPECT_NE(s.find("| z  |      |"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.25), "25%");
  EXPECT_EQ(fmt_sig(0.000123, 2), "0.00012");
  EXPECT_EQ(fmt_sig(std::numeric_limits<double>::quiet_NaN()), "NA");
}

TEST(Summary, QuartilesOfKnownSample) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const auto s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(Summary, EmptySampleIsAllZero) {
  const auto s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0.0, 4.0, 2);
  h.add(1.0);
  h.add(3.0);
  h.add(3.5);
  const std::string s = h.render(10);
  EXPECT_NE(s.find(" 1"), std::string::npos);
  EXPECT_NE(s.find(" 2"), std::string::npos);
}

// Regression: add() used to cast t * bins to an integer BEFORE clamping —
// UB for NaN and for samples far outside [lo, hi] (the cast of 1e300
// overflows any integer type). Runs under the UBSan CI tier, which traps
// the old behaviour.
TEST(Histogram, WildAndNonFiniteSamplesAreSafe) {
  Histogram h(0.0, 100.0, 10);
  h.add(1e300);   // would overflow the old pre-clamp integer cast
  h.add(-1e300);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(9), 2u);  // huge values clamp into the last bin
  EXPECT_EQ(h.count(0), 2u);  // hugely negative into the first
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.nan_count(), 0u);

  // NaN has no position: dropped from bins and total, tallied separately.
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.nan_count(), 1u);
  std::size_t binned = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) binned += h.count(b);
  EXPECT_EQ(binned, 4u);

  // In-range values still bin exactly as before.
  h.add(55.0);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Percentiles, SingleSortMatchesPerCallPercentile) {
  Rng rng(77);
  std::vector<double> samples;
  for (int i = 0; i < 257; ++i) samples.push_back(rng.uniform() * 1000.0);
  const std::vector<double> qs{0.99, 0.5, 0.0, 0.95, 1.0, 0.25};  // unsorted
  const auto batch = percentiles(samples, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(batch[i], percentile(samples, qs[i])) << "q=" << qs[i];
  }
  EXPECT_EQ(percentiles(std::vector<double>{}, qs).size(), qs.size());
}

TEST(Percentiles, HistogramQuantilesMatchPerCallWalk) {
  Histogram h(0.0, 50.0, 25);
  Rng rng(78);
  for (int i = 0; i < 500; ++i) h.add(rng.uniform() * 60.0 - 5.0);
  const std::vector<double> qs{0.99, 0.5, 0.95, 0.0, 1.0};  // unsorted
  const auto batch = histogram_quantiles(h, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(batch[i], histogram_quantile(h, qs[i])) << "q=" << qs[i];
  }
  // Sparse histogram (empty bins between occupied ones) and empty hist.
  Histogram sparse(0.0, 10.0, 10);
  sparse.add(0.5);
  sparse.add(9.5);
  for (double q : {0.0, 0.3, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(histogram_quantiles(sparse, {&q, 1})[0],
              histogram_quantile(sparse, q));
  }
  const Histogram empty(0.0, 1.0, 4);
  for (double v : histogram_quantiles(empty, qs)) EXPECT_EQ(v, 0.0);
}

/// Property sweep: W1 is a metric (symmetry, identity, triangle-ish).
class WassersteinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WassersteinProperty, SymmetricAndNonNegative) {
  Rng rng(GetParam());
  std::vector<double> a, b;
  for (int i = 0; i < 40; ++i) a.push_back(rng.gaussian());
  for (int i = 0; i < 25; ++i) b.push_back(rng.gaussian(1.0, 2.0));
  const double ab = wasserstein1(a, b);
  const double ba = wasserstein1(b, a);
  EXPECT_NEAR(ab, ba, 1e-12);
  EXPECT_GE(ab, 0.0);
  EXPECT_NEAR(wasserstein1(a, a), 0.0, 1e-12);
}

TEST_P(WassersteinProperty, TranslationCovariance) {
  Rng rng(GetParam() ^ 0x55);
  std::vector<double> a, shifted;
  for (int i = 0; i < 30; ++i) {
    const double v = rng.uniform(-1, 1);
    a.push_back(v);
    shifted.push_back(v + 1.5);
  }
  EXPECT_NEAR(wasserstein1(a, shifted), 1.5, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WassersteinProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Json, ParsesEveryValueKind) {
  const Json doc = Json::parse(
      R"({"null":null,"t":true,"f":false,"int":-42,"big":18446744073709551615,)"
      R"("pi":3.5,"s":"hi","a":[1,2,3],"o":{"k":"v"}})");
  EXPECT_TRUE(doc.at("null").is_null());
  EXPECT_TRUE(doc.at("t").boolean());
  EXPECT_FALSE(doc.at("f").boolean());
  EXPECT_EQ(doc.at("int").i64(), -42);
  // 2^64 - 1 must round-trip exactly — the protocol carries RNG seeds.
  EXPECT_EQ(doc.at("big").u64(), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(doc.at("pi").number(), 3.5);
  EXPECT_EQ(doc.at("s").str(), "hi");
  EXPECT_EQ(doc.at("a").array().size(), 3u);
  EXPECT_EQ(doc.at("o").at("k").str(), "v");
}

TEST(Json, DumpParseRoundTripIsByteStable) {
  // Insertion order is preserved, so dump(parse(dump(x))) == dump(x).
  Json json;
  json.set("seed", std::uint64_t{18446744073709551615ULL});
  json.set("neg", std::int64_t{-7});
  json.set("name", "synthetic_0");
  json.set("frac", 0.25);
  json.set("list", JsonArray{Json(1), Json("two"), Json(nullptr)});
  const std::string once = json.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
  EXPECT_EQ(Json::parse(once), json);
}

TEST(Json, EscapesAndUnescapesStrings) {
  Json json;
  json.set("s", std::string("line\n\ttab \"quoted\" back\\slash \x01"));
  const Json parsed = Json::parse(json.dump());
  EXPECT_EQ(parsed.at("s").str(), json.at("s").str());
  // \uXXXX escapes decode to UTF-8 (é, then 😀 as a surrogate pair).
  EXPECT_EQ(Json::parse("\"\\u00e9\\ud83d\\ude00\"").str(),
            "\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(Json::parse("[1 2]"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);  // trailing garbage
}

TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  EXPECT_TRUE(Json::parse(nested(Json::kMaxDepth, '[', ']')).is_array());
  EXPECT_THROW(Json::parse(nested(Json::kMaxDepth + 1, '[', ']')), JsonError);
  // Objects count toward the same bound as arrays.
  std::string objects;
  for (std::size_t i = 0; i < Json::kMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(Json::kMaxDepth, '}');
  EXPECT_TRUE(Json::parse(objects).is_object());
  EXPECT_THROW(Json::parse("[" + objects + "]"), JsonError);
}

TEST(Json, TypedAccessorsEnforceExactness) {
  const Json doc = Json::parse(R"({"neg":-1,"frac":1.5,"three":3})");
  EXPECT_THROW((void)doc.at("neg").u64(), JsonError);
  EXPECT_THROW((void)doc.at("frac").u64(), JsonError);
  EXPECT_THROW((void)doc.at("frac").i64(), JsonError);
  EXPECT_EQ(doc.at("three").u64(), 3u);
  EXPECT_EQ(doc.at("three").i64(), 3);
  EXPECT_THROW((void)doc.at("missing"), JsonError);
  EXPECT_EQ(doc.find("missing"), nullptr);
  // Doubles outside the integer range must throw, not hit UB in the
  // float-to-int cast — these arrive straight off the daemon's wire.
  const Json huge = Json::parse(R"({"pos":1e300,"neg":-1e300})");
  EXPECT_THROW((void)huge.at("pos").u64(), JsonError);
  EXPECT_THROW((void)huge.at("pos").i64(), JsonError);
  EXPECT_THROW((void)huge.at("neg").i64(), JsonError);
}

}  // namespace
}  // namespace syn::util
