// Concurrency tier: ThreadPool semantics (futures, exception propagation,
// stress), per-design stream splitting, and the batched generation
// contract — a dataset's designs are bit-identical at any batch size and
// thread count, because each design's stream, not the worker schedule,
// drives every random draw. Also the shared synthesis cache and the
// bounded queue under contention. These binaries are the TSan CI job's
// targets.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/syncircuit.hpp"
#include "graph/validity.hpp"
#include "rtl/generators.hpp"
#include "synth/synthesizer.hpp"
#include "util/batching.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace syn {
namespace {

TEST(ThreadPool, RunsManySmallTasksToCompletion) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> results;
  for (int i = 0; i < 1000; ++i) {
    results.push_back(pool.submit([i] { return i * i; }));
  }
  long long total = 0;
  for (auto& r : results) total += r.get();
  long long expected = 0;
  for (int i = 0; i < 1000; ++i) expected += static_cast<long long>(i) * i;
  EXPECT_EQ(total, expected);
}

TEST(ThreadPool, PropagatesTaskExceptionsThroughFutures) {
  util::ThreadPool pool(3);
  auto ok_before = pool.submit([] { return 1; });
  auto boom = pool.submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_EQ(ok_before.get(), 1);
  EXPECT_THROW(boom.get(), std::runtime_error);
  // A throwing task must not kill its worker: the pool stays usable.
  auto ok_after = pool.submit([] { return 2; });
  EXPECT_EQ(ok_after.get(), 2);
}

TEST(ThreadPool, ParallelForCoversEveryIndexAndRethrows) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::logic_error("i=5");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins only after the queue is empty
  EXPECT_EQ(ran.load(), 64);
}

TEST(SplitStreams, DeterministicAndDistinct) {
  const auto a = util::split_streams(42, 16);
  const auto b = util::split_streams(42, 16);
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::set<std::uint64_t>(a.begin(), a.end()).size(), a.size());
  // Prefix property: the first k streams of a longer split are identical,
  // so extending a dataset's count never reshuffles existing streams.
  const auto longer = util::split_streams(42, 32);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(longer[i], a[i]);
}

TEST(ForEachChunk, CoversRangeInOrderWithBoundedWindows) {
  std::vector<std::pair<std::size_t, std::size_t>> windows;
  util::for_each_chunk(10, 4, [&](std::size_t lo, std::size_t n) {
    windows.emplace_back(lo, n);
  });
  const std::vector<std::pair<std::size_t, std::size_t>> expected{
      {0, 4}, {4, 4}, {8, 2}};
  EXPECT_EQ(windows, expected);
  // Degenerate chunk sizes fall back to per-item windows; empty ranges
  // invoke nothing.
  windows.clear();
  util::for_each_chunk(3, 0, [&](std::size_t lo, std::size_t n) {
    windows.emplace_back(lo, n);
  });
  EXPECT_EQ(windows.size(), 3u);
  windows.clear();
  util::for_each_chunk(0, 8, [&](std::size_t lo, std::size_t n) {
    windows.emplace_back(lo, n);
  });
  EXPECT_TRUE(windows.empty());
}

core::SynCircuitConfig batched_gen_config() {
  core::SynCircuitConfig cfg;
  cfg.diffusion.steps = 4;
  cfg.diffusion.denoiser = {.mpnn_layers = 2, .hidden = 12, .time_dim = 8};
  cfg.diffusion.epochs = 3;
  cfg.mcts = {.simulations = 12, .max_depth = 4, .actions_per_state = 4,
              .max_registers = 3};
  cfg.seed = 2025;
  return cfg;
}

TEST(BatchedGeneration, BitIdenticalToScalarAtAnyBatchAndThreadCount) {
  core::SynCircuitGenerator gen(batched_gen_config());
  gen.fit({rtl::make_counter(4), rtl::make_fsm(2, 2), rtl::make_fifo_ctrl(2)});

  // Five items of mixed sizes, each owning stream split_streams(seed)[i].
  const std::uint64_t seed = 404;
  std::vector<graph::NodeAttrs> attrs{
      graph::attrs_of(rtl::make_counter(4)),
      graph::attrs_of(rtl::make_fsm(2, 2)),
      graph::attrs_of(rtl::make_counter(6)),
      graph::attrs_of(rtl::make_fifo_ctrl(2)),
      graph::attrs_of(rtl::make_counter(4))};
  const auto seeds = util::split_streams(seed, attrs.size());

  // Reference: the scalar path, one generate() per item on its stream.
  std::vector<graph::Graph> reference;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    util::Rng rng(seeds[i]);
    reference.push_back(gen.generate(attrs[i], rng));
    EXPECT_TRUE(graph::is_valid(reference.back()));
  }

  // Batch size and thread count are pure throughput knobs.
  const std::pair<std::size_t, int> shapes[] = {
      {1, 1}, {2, 1}, {5, 1}, {2, 2}, {3, 8}};
  for (const auto& [batch, threads] : shapes) {
    const auto out = gen.generate_batch(
        attrs, seed, {.batch = batch, .threads = threads});
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(out[i], reference[i])
          << "item " << i << " batch=" << batch << " threads=" << threads;
    }
  }
}

TEST(SynthCache, ConcurrentLookupsStayConsistent) {
  // The memoized synthesis oracle is shared by every generation worker;
  // hammer it from many threads and check every answer against an uncached
  // reference. (This binary runs under TSan in CI.)
  synth::reset_synthesis_cache();
  const std::vector<graph::Graph> designs{
      rtl::make_counter(4), rtl::make_counter(6), rtl::make_fifo_ctrl(2),
      rtl::make_fsm(2, 2)};
  std::vector<double> expected_area;
  synth::reset_synthesis_cache(0);  // record references uncached
  for (const auto& g : designs) {
    expected_area.push_back(synth::synthesize_stats(g).area);
  }
  synth::reset_synthesis_cache();

  util::ThreadPool pool(4);
  std::vector<double> areas(64);
  pool.parallel_for(areas.size(), [&](std::size_t i) {
    areas[i] = synth::synthesize_stats(designs[i % designs.size()]).area;
  });
  for (std::size_t i = 0; i < areas.size(); ++i) {
    EXPECT_EQ(areas[i], expected_area[i % designs.size()]) << "query " << i;
  }
  const auto cs = synth::synthesis_cache_stats();
  EXPECT_EQ(cs.hits + cs.misses, areas.size());
  EXPECT_EQ(cs.entries, designs.size());
  // Racing first lookups may each miss (at most one per worker per
  // design) before the first insert lands; everything later must hit.
  EXPECT_GE(cs.hits, areas.size() - designs.size() * pool.size());
  synth::reset_synthesis_cache();
}

TEST(BoundedQueue, CloseRacingMultiProducerPushLosesNoAcceptedItem) {
  // close() racing a pack of blocked multi-producer push()es: every push
  // that returned true must be popped exactly once, every push that
  // returned false must NOT appear, and nobody may deadlock. (This
  // binary runs under TSan in CI — the daemon scheduler cancels jobs by
  // closing their service queues mid-flight, which is exactly this race.)
  for (int round = 0; round < 20; ++round) {
    util::BoundedQueue<int> q(2);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 50;
    std::vector<std::atomic<bool>> accepted(
        static_cast<std::size_t>(kProducers * kPerProducer));
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, &accepted, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const int value = p * kPerProducer + i;
          if (q.push(value)) {
            accepted[static_cast<std::size_t>(value)].store(true);
          } else {
            return;  // closed: the rest of this producer's items drop too
          }
        }
      });
    }
    std::vector<int> popped;
    std::thread consumer([&] {
      // Drain a prefix, then keep draining after close until empty.
      while (auto item = q.pop()) popped.push_back(*item);
    });
    // Let the race happen at an arbitrary point in the stream.
    if (round % 2 == 0) std::this_thread::yield();
    q.close();
    for (auto& t : producers) t.join();
    consumer.join();

    std::set<int> seen;
    for (const int v : popped) {
      EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
    }
    // Exactly the accepted set was delivered: push()==true implies
    // popped, push()==false implies absent.
    std::size_t accepted_count = 0;
    for (std::size_t v = 0; v < accepted.size(); ++v) {
      accepted_count += accepted[v].load();
      EXPECT_EQ(accepted[v].load(), seen.count(static_cast<int>(v)) > 0)
          << "value " << v;
    }
    EXPECT_EQ(popped.size(), accepted_count);
  }
}

}  // namespace
}  // namespace syn
