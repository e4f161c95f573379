// Service-layer tier: the bounded backpressure queue, dataset sinks
// (sharded layout, manifest, checkpointed resume), and the streaming
// GenerationService pump. This binary is part of the TSan CI tier — the
// queue and the producer/consumer handoff are its concurrency surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/generator.hpp"
#include "core/postprocess.hpp"
#include "graph/validity.hpp"
#include "nn/matrix.hpp"
#include "rtl/generators.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "util/bounded_queue.hpp"
#include "util/thread_pool.hpp"

namespace syn {
namespace {

using service::DatasetSummary;
using service::DesignRecord;
using service::GenerationJob;
using service::GenerationService;
using service::MemorySink;
using service::ShardedDiskSink;

TEST(BoundedQueue, FifoOrderThroughPushPop) {
  util::BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 4; ++i) {
    const auto item = q.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
}

TEST(BoundedQueue, PushBlocksAtCapacityUntilPopMakesRoom) {
  util::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // blocks until the pop below
    third_pushed.store(true);
  });
  // The producer must be parked at the capacity bound, not buffering.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueue, CloseDrainsThenSignalsEndOfStream) {
  util::BoundedQueue<int> q(8);
  EXPECT_TRUE(q.push(7));
  EXPECT_TRUE(q.push(8));
  q.close();
  EXPECT_FALSE(q.push(9));  // rejected after close
  EXPECT_EQ(q.pop(), 7);    // already-queued items still drain
  EXPECT_EQ(q.pop(), 8);
  EXPECT_FALSE(q.pop().has_value());  // then end-of-stream
}

TEST(BoundedQueue, CloseWakesBlockedProducerAndConsumer) {
  util::BoundedQueue<int> full(1);
  EXPECT_TRUE(full.push(1));
  std::thread producer([&] { EXPECT_FALSE(full.push(2)); });
  util::BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full.close();
  empty.close();
  producer.join();
  consumer.join();
}

TEST(BoundedQueue, ManyProducersManyConsumersLoseNothing) {
  // MPMC stress for the TSan tier: every pushed value is popped exactly
  // once, across more threads than capacity.
  util::BoundedQueue<int> q(3);
  constexpr int kPerProducer = 200;
  constexpr int kProducers = 4;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.pop()) {
        sum.fetch_add(*item);
        popped.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  long long expected = 0;
  for (int v = 0; v < total; ++v) expected += v;
  EXPECT_EQ(sum.load(), expected);
}

/// Cheap deterministic GeneratorModel for service tests: repairs a
/// random skeleton into a valid circuit, driven only by the caller's
/// rng — so service output can be compared bitwise against a scalar
/// reference loop without training anything.
class StubModel : public core::GeneratorModel {
 public:
  void fit(const std::vector<graph::Graph>&) override {}
  graph::Graph generate(const graph::NodeAttrs& attrs,
                        util::Rng& rng) override {
    const std::size_t n = attrs.size();
    graph::AdjacencyMatrix gini(n);
    nn::Matrix probs(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) gini.set(i, j, rng.bernoulli(0.05));
        probs.at(i, j) = static_cast<float>(rng.uniform());
      }
    }
    return core::repair_to_valid(attrs, gini, probs, rng);
  }
  [[nodiscard]] std::string name() const override { return "Stub"; }
};

core::AttrSampler corpus_sampler() {
  core::AttrSampler sampler;
  sampler.fit({rtl::make_counter(4), rtl::make_fifo_ctrl(2),
               rtl::make_fsm(2, 2)});
  return sampler;
}

GenerationJob small_job(std::size_t count, std::uint64_t seed,
                        const core::AttrSampler& sampler) {
  return {.count = count,
          .seed = seed,
          .attrs = [&sampler](std::size_t i, util::Rng& rng) {
            return sampler.sample(10 + 2 * (i % 3), rng);
          }};
}

TEST(GenerationService, StreamsEveryDesignInOrderWithCheckpoints) {
  StubModel model;
  const auto sampler = corpus_sampler();
  // Tiny queue so the producer genuinely exercises backpressure.
  GenerationService svc(model, {.batch = {.batch = 2, .threads = 2},
                                .queue_capacity = 2});
  MemorySink sink;
  const auto stats = svc.run(small_job(9, 31, sampler), sink);

  EXPECT_EQ(stats.produced, 9u);
  EXPECT_EQ(stats.resumed_at, 0u);
  ASSERT_EQ(sink.records().size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(sink.records()[i].index, i);  // strict index order
    EXPECT_TRUE(graph::is_valid(sink.records()[i].graph));
    EXPECT_EQ(sink.records()[i].graph.name(),
              "synthetic_" + std::to_string(i));
  }
  EXPECT_EQ(sink.checkpointed(), 9u);
  EXPECT_TRUE(sink.finalized());
  EXPECT_EQ(sink.summary().generator, "Stub");
  EXPECT_EQ(sink.summary().count, 9u);
}

TEST(GenerationService, OutputBitIdenticalToScalarReferenceLoop) {
  const auto sampler = corpus_sampler();
  const std::uint64_t seed = 77;
  const std::size_t count = 6;

  // Reference: the exact per-design stream contract, computed by hand.
  StubModel reference_model;
  const auto streams = util::split_streams(seed, count);
  std::vector<graph::Graph> reference;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t s = streams[i];
    util::Rng attr_rng(util::splitmix64(s));
    const auto attrs = sampler.sample(10 + 2 * (i % 3), attr_rng);
    util::Rng rng(streams[i]);
    reference.push_back(reference_model.generate(attrs, rng));
  }

  // The service must reproduce it at any batch/thread/queue shape.
  const std::pair<std::size_t, int> shapes[] = {{1, 1}, {2, 2}, {4, 3}};
  for (const auto& [batch, threads] : shapes) {
    StubModel model;
    GenerationService svc(model, {.batch = {.batch = batch,
                                            .threads = threads},
                                  .queue_capacity = 3});
    MemorySink sink;
    svc.run(small_job(count, seed, sampler), sink);
    ASSERT_EQ(sink.records().size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      graph::Graph got = sink.records()[i].graph;
      got.set_name(reference[i].name());  // names differ by design index
      EXPECT_EQ(got, reference[i])
          << "design " << i << " batch=" << batch << " threads=" << threads;
    }
  }
}

TEST(GenerationService, InvalidDesignAbortsTheRun) {
  struct BrokenModel : core::GeneratorModel {
    void fit(const std::vector<graph::Graph>&) override {}
    graph::Graph generate(const graph::NodeAttrs& attrs,
                          util::Rng&) override {
      // A bare skeleton violates arity constraints — never valid.
      return graph::skeleton_from_attrs(attrs, "broken");
    }
    [[nodiscard]] std::string name() const override { return "Broken"; }
  };
  BrokenModel model;
  const auto sampler = corpus_sampler();
  GenerationService svc(model, {.batch = {.batch = 2, .threads = 1}});
  MemorySink sink;
  EXPECT_THROW((void)svc.run(small_job(4, 5, sampler), sink),
               std::runtime_error);
  EXPECT_FALSE(sink.finalized());
}

TEST(GenerationService, SinkExceptionsPropagateAndStopTheProducer) {
  struct FailingSink : MemorySink {
    void write(const DesignRecord& record) override {
      if (record.index == 2) throw std::runtime_error("disk full");
      MemorySink::write(record);
    }
  };
  StubModel model;
  const auto sampler = corpus_sampler();
  GenerationService svc(model, {.batch = {.batch = 1, .threads = 1},
                                .queue_capacity = 1});
  FailingSink sink;
  EXPECT_THROW((void)svc.run(small_job(50, 6, sampler), sink),
               std::runtime_error);
  EXPECT_FALSE(sink.finalized());
  // The tiny queue guarantees the producer stopped long before design 50.
  EXPECT_LT(sink.records().size(), 10u);
}

class ShardedDiskSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("syn_service_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::size_t manifest_lines(const std::filesystem::path& dir) {
    std::ifstream in(dir / "manifest.jsonl");
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) lines += !line.empty();
    return lines;
  }

  std::filesystem::path dir_;
};

TEST_F(ShardedDiskSinkTest, WritesShardedLayoutManifestAndCheckpoint) {
  StubModel model;
  const auto sampler = corpus_sampler();
  ShardedDiskSink sink({.dir = dir_,
                        .seed = 11,
                        .shard_size = 3,
                        .with_synth_stats = false});
  GenerationService svc(model, {.batch = {.batch = 2, .threads = 2},
                                .queue_capacity = 4});
  const auto stats = svc.run(small_job(7, 11, sampler), sink);
  EXPECT_EQ(stats.produced, 7u);

  // shard_size=3 over 7 designs: 3 + 3 + 1.
  EXPECT_TRUE(std::filesystem::exists(dir_ / "shard_0000/synthetic_0.v"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "shard_0000/synthetic_2.v"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "shard_0001/synthetic_3.v"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "shard_0002/synthetic_6.v"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "shard_0003"));
  EXPECT_EQ(manifest_lines(dir_), 7u);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "manifest.json"));

  std::ifstream checkpoint(dir_ / "checkpoint.txt");
  std::stringstream buffer;
  buffer << checkpoint.rdbuf();
  EXPECT_EQ(buffer.str(), "seed=11\nshard_size=3\nnext=7\n");
}

TEST_F(ShardedDiskSinkTest, ResumeSkipsCommittedDesignsAndExtends) {
  StubModel model;
  const auto sampler = corpus_sampler();
  const std::uint64_t seed = 13;

  // First run: 4 of what will eventually be 9 designs.
  {
    ShardedDiskSink sink({.dir = dir_, .seed = seed, .shard_size = 2,
                          .with_synth_stats = false});
    GenerationService svc(model, {.batch = {.batch = 2, .threads = 1}});
    svc.run(small_job(4, seed, sampler), sink);
  }
  // Second run asks for 9: must resume at 4, producing only 5 more.
  {
    ShardedDiskSink sink({.dir = dir_, .seed = seed, .shard_size = 2,
                          .with_synth_stats = false});
    EXPECT_EQ(sink.resume_index(), 4u);
    GenerationService svc(model, {.batch = {.batch = 2, .threads = 2}});
    const auto stats = svc.run(small_job(9, seed, sampler), sink);
    EXPECT_EQ(stats.resumed_at, 4u);
    EXPECT_EQ(stats.produced, 5u);
  }
  EXPECT_EQ(manifest_lines(dir_), 9u);

  // The resumed dataset must be bit-identical to one generated fresh.
  const auto fresh_dir = dir_.parent_path() / (dir_.filename().string() +
                                               "_fresh");
  std::filesystem::remove_all(fresh_dir);
  {
    ShardedDiskSink sink({.dir = fresh_dir, .seed = seed, .shard_size = 2,
                          .with_synth_stats = false});
    GenerationService svc(model, {.batch = {.batch = 3, .threads = 2}});
    svc.run(small_job(9, seed, sampler), sink);
  }
  for (int i = 0; i < 9; ++i) {
    const auto rel = std::filesystem::path(
        "shard_000" + std::to_string(i / 2)) /
        ("synthetic_" + std::to_string(i) + ".v");
    std::ifstream a(dir_ / rel), b(fresh_dir / rel);
    ASSERT_TRUE(a && b) << rel;
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << rel;
  }
  std::filesystem::remove_all(fresh_dir);

  // A completed dataset resumes to "nothing to do".
  ShardedDiskSink done({.dir = dir_, .seed = seed, .shard_size = 2,
                        .with_synth_stats = false});
  EXPECT_EQ(done.resume_index(), 9u);
  GenerationService svc(model, {});
  const auto stats = svc.run(small_job(9, seed, sampler), done);
  EXPECT_EQ(stats.produced, 0u);
}

TEST_F(ShardedDiskSinkTest, MismatchedSeedIgnoresCheckpoint) {
  StubModel model;
  const auto sampler = corpus_sampler();
  {
    ShardedDiskSink sink({.dir = dir_, .seed = 41, .shard_size = 0,
                          .with_synth_stats = false});
    GenerationService svc(model, {});
    svc.run(small_job(3, 41, sampler), sink);
  }
  // Different seed = different dataset: the checkpoint must not apply,
  // and stale manifest records must be pruned.
  ShardedDiskSink sink({.dir = dir_, .seed = 42, .shard_size = 0,
                        .with_synth_stats = false});
  EXPECT_EQ(sink.resume_index(), 0u);
  EXPECT_EQ(manifest_lines(dir_), 0u);
}

TEST_F(ShardedDiskSinkTest, MismatchedShardSizeIgnoresCheckpoint) {
  StubModel model;
  const auto sampler = corpus_sampler();
  {
    ShardedDiskSink sink({.dir = dir_, .seed = 41, .shard_size = 0,
                          .with_synth_stats = false});
    GenerationService svc(model, {});
    svc.run(small_job(3, 41, sampler), sink);
  }
  // Same seed, different shard size: resuming would scatter designs
  // across a mixed flat/sharded layout, so the checkpoint must not
  // apply and the run starts over under the new layout.
  ShardedDiskSink sink({.dir = dir_, .seed = 41, .shard_size = 2,
                        .with_synth_stats = false});
  EXPECT_EQ(sink.resume_index(), 0u);
  EXPECT_EQ(manifest_lines(dir_), 0u);
}

TEST_F(ShardedDiskSinkTest, FreshDiscardsCheckpointAndManifest) {
  StubModel model;
  const auto sampler = corpus_sampler();
  {
    ShardedDiskSink sink({.dir = dir_, .seed = 3, .shard_size = 2,
                          .with_synth_stats = false});
    GenerationService svc(model, {});
    svc.run(small_job(4, 3, sampler), sink);
  }
  ShardedDiskSink sink({.dir = dir_, .seed = 3, .shard_size = 2,
                        .fresh = true, .with_synth_stats = false});
  EXPECT_EQ(sink.resume_index(), 0u);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "checkpoint.txt"));
  EXPECT_EQ(manifest_lines(dir_), 0u);
}

TEST_F(ShardedDiskSinkTest, FinalizeThrowsWhenTheSummaryCannotBeWritten) {
  // A directory where manifest.json belongs makes the summary write fail;
  // the sink must report it instead of finishing as if it had landed.
  ShardedDiskSink sink({.dir = dir_, .seed = 5, .shard_size = 2,
                        .with_synth_stats = false});
  std::filesystem::create_directories(dir_ / "manifest.json");
  EXPECT_THROW(sink.finalize({.generator = "stub", .seed = 5, .count = 0}),
               std::runtime_error);
}

TEST_F(ShardedDiskSinkTest, FlatLayoutWhenShardingDisabled) {
  StubModel model;
  const auto sampler = corpus_sampler();
  ShardedDiskSink sink({.dir = dir_, .seed = 4, .shard_size = 0,
                        .with_synth_stats = false});
  GenerationService svc(model, {});
  svc.run(small_job(3, 4, sampler), sink);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "synthetic_0.v"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "synthetic_2.v"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "shard_0000"));
}

}  // namespace
}  // namespace syn
