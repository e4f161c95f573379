// Server tier: protocol round-trips, the fair-share JobScheduler, sink
// fan-out (TeeSink + StreamingManifestSink), the ShardedDiskSink
// lockfile, GenerationService progress/cancel, and the daemon end to end
// over a real Unix socket. Part of the TSan CI tier — the scheduler, the
// event logs and the per-connection threads are its concurrency surface.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/generator.hpp"
#include "core/postprocess.hpp"
#include "graph/adjacency.hpp"
#include "nn/matrix.hpp"
#include "rtl/generators.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"
#include "server/socket_io.hpp"
#include "server/stream_sink.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace syn {
namespace {

using server::ClientConnection;
using server::Daemon;
using server::DaemonConfig;
using server::FittedBackend;
using server::JobScheduler;
using server::JobSpec;
using server::JobState;
using server::Request;
using server::StreamingManifestSink;
using service::DesignRecord;
using service::GenerationService;
using service::MemorySink;
using service::ShardedDiskSink;
using service::TeeSink;
using util::Json;

// ---------------------------------------------------------------- protocol

TEST(Protocol, EveryRequestKindRoundTrips) {
  std::vector<Request> requests;
  {
    Request r;
    r.cmd = Request::Cmd::kSubmit;
    r.client = "alice";
    r.spec = {.count = 12,
              .seed = 18446744073709551615ULL,
              .backend = "graphrnn",
              .out = "/data/run1",
              .batch = 4,
              .threads = 2,
              .shard_size = 16,
              .queue = 8,
              .fresh = true,
              .synth_stats = false};
    requests.push_back(r);
  }
  {
    Request r;  // defaulted spec fields must survive the omission encoding
    r.cmd = Request::Cmd::kSubmit;
    r.spec = {.count = 1, .seed = 0};
    requests.push_back(r);
  }
  for (const auto cmd : {Request::Cmd::kStatus, Request::Cmd::kCancel,
                         Request::Cmd::kStream}) {
    Request r;
    r.cmd = cmd;
    r.id = "job-7";
    requests.push_back(r);
  }
  for (const auto filter : {server::StreamFilter::kRecords,
                            server::StreamFilter::kCheckpoints}) {
    Request r;  // non-default filters must survive the omission encoding
    r.cmd = Request::Cmd::kStream;
    r.id = "job-8";
    r.filter = filter;
    requests.push_back(r);
  }
  {
    Request r;
    r.cmd = Request::Cmd::kList;
    requests.push_back(r);
  }
  {
    Request r;
    r.cmd = Request::Cmd::kMetrics;
    requests.push_back(r);
  }
  {
    Request r;
    r.cmd = Request::Cmd::kPing;
    requests.push_back(r);
  }
  {
    Request r;
    r.cmd = Request::Cmd::kShutdown;
    r.drain = false;
    requests.push_back(r);
  }
  for (const Request& request : requests) {
    const std::string line = server::encode(request);
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    EXPECT_EQ(server::parse_request(line), request) << line;
  }
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_THROW(server::parse_request("not json"), server::ProtocolError);
  EXPECT_THROW(server::parse_request("[1,2]"), server::ProtocolError);
  EXPECT_THROW(server::parse_request(R"({"cmd":"frobnicate"})"),
               server::ProtocolError);
  EXPECT_THROW(server::parse_request(R"({"cmd":"status"})"),
               server::ProtocolError);  // missing id
  EXPECT_THROW(server::parse_request(R"({"cmd":"status","id":""})"),
               server::ProtocolError);
  EXPECT_THROW(server::parse_request(R"({"cmd":"submit"})"),
               server::ProtocolError);  // missing spec
  EXPECT_THROW(
      server::parse_request(R"({"cmd":"submit","spec":{"seed":1}})"),
      server::ProtocolError);  // missing count
  EXPECT_THROW(
      server::parse_request(
          R"({"cmd":"submit","spec":{"count":0,"seed":1}})"),
      server::ProtocolError);
  EXPECT_THROW(
      server::parse_request(
          R"({"cmd":"submit","spec":{"count":"five","seed":1}})"),
      server::ProtocolError);  // wrong type reports as protocol error
  EXPECT_THROW(
      server::parse_request(R"({"cmd":"stream","id":"j","filter":"bogus"})"),
      server::ProtocolError);  // unknown stream filter
  EXPECT_THROW((void)server::stream_filter_from_string("Records"),
               server::ProtocolError);  // case-sensitive
}

TEST(Protocol, ResponsesCarryOkFlag) {
  EXPECT_TRUE(server::ok_response().at("ok").boolean());
  const Json error = server::error_response("boom");
  EXPECT_FALSE(error.at("ok").boolean());
  EXPECT_EQ(error.at("error").str(), "boom");
  EXPECT_EQ(error.find("code"), nullptr);  // generic errors carry no code
  const Json typed =
      server::error_response("full", server::kErrorCodeQuota);
  EXPECT_FALSE(typed.at("ok").boolean());
  EXPECT_EQ(typed.at("code").str(), "quota_exceeded");
}

// --------------------------------------------------------------- scheduler

JobScheduler::Options slots(std::size_t max_concurrent) {
  JobScheduler::Options options;
  options.max_concurrent = max_concurrent;
  return options;
}

TEST(Scheduler, RunsJobsAndReportsTerminalStates) {
  JobScheduler scheduler(slots(2));
  const std::string ok =
      scheduler.submit("c", [](const JobScheduler::Handle&) {});
  const std::string bad = scheduler.submit("c", [](const JobScheduler::Handle&) {
    throw std::runtime_error("exploded");
  });
  const std::string cancelled =
      scheduler.submit("c", [](const JobScheduler::Handle&) {
        throw service::CancelledError();
      });
  EXPECT_EQ(scheduler.wait(ok), JobState::kDone);
  EXPECT_EQ(scheduler.wait(bad), JobState::kFailed);
  EXPECT_EQ(scheduler.wait(cancelled), JobState::kCancelled);
  EXPECT_EQ(scheduler.info(bad).error, "exploded");
  EXPECT_EQ(scheduler.list().size(), 3u);
  EXPECT_THROW(scheduler.info("job-999"), std::out_of_range);
  EXPECT_THROW(scheduler.wait("nope"), std::out_of_range);
}

TEST(Scheduler, FairShareRoundRobinAcrossClients) {
  // One slot; alice floods 3 jobs before bob's 3 arrive. Starts must
  // interleave a-b-a-b-a-b (after alice's head job, which is already
  // running), not drain alice's queue first.
  JobScheduler scheduler(slots(1));
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> started;
  bool release_first = false;
  const auto body = [&](const std::string& label, bool hold) {
    return [&, label, hold](const JobScheduler::Handle&) {
      std::unique_lock<std::mutex> lock(mutex);
      started.push_back(label);
      // The head job parks until every submission is queued, so the
      // dispatch order of the remaining five is purely the scheduler's.
      if (hold) cv.wait(lock, [&] { return release_first; });
    };
  };
  scheduler.submit("alice", body("a1", true));
  scheduler.submit("alice", body("a2", false));
  scheduler.submit("alice", body("a3", false));
  scheduler.submit("bob", body("b1", false));
  scheduler.submit("bob", body("b2", false));
  const std::string last = scheduler.submit("bob", body("b3", false));
  {
    const std::lock_guard<std::mutex> lock(mutex);
    release_first = true;
  }
  cv.notify_all();
  scheduler.wait(last);
  scheduler.shutdown(true);
  const std::vector<std::string> expected{"a1", "b1", "a2", "b2", "a3", "b3"};
  EXPECT_EQ(started, expected);
}

TEST(Scheduler, CancelQueuedJobNeverRuns) {
  JobScheduler scheduler(slots(1));
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> second_ran{false};
  const std::string first =
      scheduler.submit("c", [&](const JobScheduler::Handle&) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return release; });
      });
  const std::string second =
      scheduler.submit("c", [&](const JobScheduler::Handle&) {
        second_ran.store(true);
      });
  EXPECT_TRUE(scheduler.cancel(second));
  EXPECT_EQ(scheduler.info(second).state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel(second));  // already terminal
  {
    const std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(scheduler.wait(first), JobState::kDone);
  EXPECT_EQ(scheduler.wait(second), JobState::kCancelled);
  EXPECT_FALSE(second_ran.load());
}

TEST(Scheduler, CancelRunningJobTripsItsToken) {
  JobScheduler scheduler(slots(1));
  std::mutex mutex;
  std::condition_variable cv;
  bool running = false;
  const std::string id =
      scheduler.submit("c", [&](const JobScheduler::Handle& handle) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          running = true;
        }
        cv.notify_all();
        while (!handle.cancelled()) std::this_thread::yield();
        throw service::CancelledError();
      });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return running; });
  }
  EXPECT_TRUE(scheduler.cancel(id));
  EXPECT_EQ(scheduler.wait(id), JobState::kCancelled);
}

TEST(Scheduler, ShutdownDrainFinishesQueuedJobs) {
  JobScheduler scheduler(slots(1));
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    scheduler.submit("c", [&](const JobScheduler::Handle&) {
      ran.fetch_add(1);
    });
  }
  scheduler.shutdown(true);
  EXPECT_EQ(ran.load(), 5);
  EXPECT_THROW(
      scheduler.submit("c", [](const JobScheduler::Handle&) {}),
      std::runtime_error);
}

TEST(Scheduler, ShutdownWithoutDrainCancelsQueuedJobs) {
  JobScheduler scheduler(slots(1));
  std::mutex mutex;
  std::condition_variable cv;
  bool running = false;
  std::atomic<int> ran{0};
  const std::string head =
      scheduler.submit("c", [&](const JobScheduler::Handle& handle) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          running = true;
        }
        cv.notify_all();
        while (!handle.cancelled()) std::this_thread::yield();
        throw service::CancelledError();
      });
  std::vector<std::string> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(scheduler.submit("c", [&](const JobScheduler::Handle&) {
      ran.fetch_add(1);
    }));
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return running; });
  }
  scheduler.shutdown(false);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(scheduler.info(head).state, JobState::kCancelled);
  for (const auto& id : queued) {
    EXPECT_EQ(scheduler.info(id).state, JobState::kCancelled);
  }
}

// ------------------------------------------------------------- sink fan-out

graph::Graph tiny_valid_graph(std::uint64_t seed) {
  core::AttrSampler sampler;
  sampler.fit({rtl::make_counter(4), rtl::make_fifo_ctrl(2)});
  util::Rng rng(seed);
  const auto attrs = sampler.sample(10, rng);
  graph::AdjacencyMatrix gini(attrs.size());
  nn::Matrix probs(attrs.size(), attrs.size());
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    for (std::size_t j = 0; j < attrs.size(); ++j) {
      if (i != j) gini.set(i, j, rng.bernoulli(0.05));
      probs.at(i, j) = static_cast<float>(rng.uniform());
    }
  }
  return core::repair_to_valid(attrs, gini, probs, rng);
}

TEST(TeeSink, FansOutToEverySinkAndResumesFromPrimary) {
  struct ResumingSink : MemorySink {
    [[nodiscard]] std::size_t resume_index() const override { return 3; }
  };
  ResumingSink primary;
  MemorySink mirror_a, mirror_b;
  TeeSink tee(primary);
  tee.add(mirror_a).add(mirror_b);

  EXPECT_EQ(tee.resume_index(), 3u);  // primary decides, mirrors don't veto

  DesignRecord record{.index = 3, .chain_seed = 9,
                      .graph = tiny_valid_graph(1)};
  record.graph.set_name("synthetic_3");
  tee.write(record);
  tee.checkpoint(4);
  tee.finalize({.generator = "Stub", .seed = 9, .count = 4});

  for (const MemorySink* sink :
       {static_cast<const MemorySink*>(&primary),
        static_cast<const MemorySink*>(&mirror_a),
        static_cast<const MemorySink*>(&mirror_b)}) {
    ASSERT_EQ(sink->records().size(), 1u);
    EXPECT_EQ(sink->records()[0].index, 3u);
    EXPECT_EQ(sink->checkpointed(), 4u);
    EXPECT_TRUE(sink->finalized());
    EXPECT_EQ(sink->summary().generator, "Stub");
  }
}

TEST(StreamingManifestSink, EmitsOneParsableEventPerRecord) {
  std::vector<std::string> lines;
  StreamingManifestSink sink(
      {.job_id = "job-9", .shard_size = 2, .with_synth_stats = false},
      [&](std::string line) { lines.push_back(std::move(line)); });

  for (std::size_t i = 0; i < 3; ++i) {
    DesignRecord record{.index = i, .chain_seed = 100 + i,
                        .graph = tiny_valid_graph(i)};
    record.graph.set_name("synthetic_" + std::to_string(i));
    sink.write(record);
  }
  sink.checkpoint(3);
  sink.finalize({.generator = "Stub", .seed = 5, .count = 3});

  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(sink.records_emitted(), 3u);
  const Json first = Json::parse(lines[0]);
  EXPECT_EQ(first.at("event").str(), "record");
  EXPECT_EQ(first.at("id").str(), "job-9");
  EXPECT_EQ(first.at("index").u64(), 0u);
  EXPECT_EQ(first.at("file").str(), "shard_0000/synthetic_0.v");
  EXPECT_EQ(first.at("chain_seed").u64(), 100u);
  EXPECT_EQ(first.find("gates"), nullptr);  // synth stats disabled
  EXPECT_EQ(Json::parse(lines[2]).at("file").str(),
            "shard_0001/synthetic_2.v");
  EXPECT_EQ(Json::parse(lines[3]).at("event").str(), "checkpoint");
  EXPECT_EQ(Json::parse(lines[3]).at("next").u64(), 3u);
  EXPECT_EQ(Json::parse(lines[4]).at("event").str(), "summary");
}

// ----------------------------------------------------------------- lockfile

class ServerDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("syn_server_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ServerDiskTest, LockfileRejectsSecondSinkOnSameDir) {
  ShardedDiskSink first({.dir = dir_, .seed = 1, .with_synth_stats = false});
  try {
    ShardedDiskSink second(
        {.dir = dir_, .seed = 1, .with_synth_stats = false});
    FAIL() << "second sink on a locked dir must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("locked by running process"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ServerDiskTest, LockfileReleasesOnDestructionAndBreaksIfStale) {
  {
    ShardedDiskSink sink({.dir = dir_, .seed = 1, .with_synth_stats = false});
    EXPECT_TRUE(std::filesystem::exists(dir_ / ".lock"));
  }
  EXPECT_FALSE(std::filesystem::exists(dir_ / ".lock"));

  // A stale lock (dead/unparsable owner) is broken silently.
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / ".lock") << "0\n";
  ShardedDiskSink sink({.dir = dir_, .seed = 1, .with_synth_stats = false});
  std::ifstream lock(dir_ / ".lock");
  long long pid = 0;
  lock >> pid;
  EXPECT_GT(pid, 0);  // rewritten with our live pid
}

// -------------------------------------------- service progress + cancel

/// Cheap deterministic model (same construction as test_service's stub,
/// plus a bounded retry: repair_to_valid rejects the occasional skeleton
/// at daemon-test design counts, and redrawing from the same rng stream
/// keeps the output a pure function of (attrs, seed)).
class StubModel : public core::GeneratorModel {
 public:
  void fit(const std::vector<graph::Graph>&) override {}
  graph::Graph generate(const graph::NodeAttrs& attrs,
                        util::Rng& rng) override {
    const std::size_t n = attrs.size();
    for (int attempt = 0;; ++attempt) {
      graph::AdjacencyMatrix gini(n);
      nn::Matrix probs(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i != j) gini.set(i, j, rng.bernoulli(0.05));
          probs.at(i, j) = static_cast<float>(rng.uniform());
        }
      }
      try {
        return core::repair_to_valid(attrs, gini, probs, rng);
      } catch (const std::exception&) {
        if (attempt >= 20) throw;
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "Stub"; }
};

FittedBackend stub_backend() {
  auto sampler = std::make_shared<core::AttrSampler>();
  sampler->fit({rtl::make_counter(4), rtl::make_fifo_ctrl(2),
                rtl::make_fsm(2, 2)});
  return {std::make_shared<StubModel>(),
          [sampler](std::size_t i, util::Rng& rng) {
            return sampler->sample(10 + 2 * (i % 3), rng);
          }};
}

service::GenerationJob stub_job(std::size_t count, std::uint64_t seed,
                                const FittedBackend& backend) {
  return {.count = count, .seed = seed, .attrs = backend.attrs};
}

TEST(GenerationServiceProgress, CountersTrackWritesAndGroups) {
  const auto backend = stub_backend();
  StubModel model;
  GenerationService svc(model, {.batch = {.batch = 3, .threads = 1},
                                .group = 3});
  EXPECT_EQ(svc.designs_written(), 0u);
  MemorySink sink;
  svc.run(stub_job(8, 21, backend), sink);
  EXPECT_EQ(svc.designs_written(), 8u);
  EXPECT_EQ(svc.groups_pumped(), 3u);  // 3 + 3 + 2
  // Counters reset per run.
  MemorySink sink2;
  svc.run(stub_job(2, 22, backend), sink2);
  EXPECT_EQ(svc.designs_written(), 2u);
  EXPECT_EQ(svc.groups_pumped(), 1u);
}

TEST(GenerationServiceProgress, CancelTokenStopsBetweenGroupsAndResumes) {
  const auto backend = stub_backend();
  const std::uint64_t seed = 33;
  std::atomic<bool> cancel{false};

  // A sink that trips the token after the first write: the producer
  // notices at the next group boundary, drains, and throws.
  struct TrippingSink : MemorySink {
    std::atomic<bool>* cancel = nullptr;
    void write(const DesignRecord& record) override {
      MemorySink::write(record);
      cancel->store(true);
    }
  };
  TrippingSink sink;
  sink.cancel = &cancel;
  StubModel model;
  GenerationService svc(model, {.batch = {.batch = 2, .threads = 1},
                                .group = 2, .queue_capacity = 1});
  auto job = stub_job(12, seed, backend);
  job.cancel = &cancel;
  EXPECT_THROW((void)svc.run(job, sink), service::CancelledError);
  EXPECT_FALSE(sink.finalized());
  // Every record that made it into the queue before the stop landed.
  EXPECT_GT(sink.records().size(), 0u);
  EXPECT_LT(sink.records().size(), 12u);

  // The cancelled run is a resumable prefix: finishing from its
  // checkpoint yields the same designs a fresh uncancelled run produces.
  struct PrefixSink : MemorySink {
    std::size_t resume = 0;
    [[nodiscard]] std::size_t resume_index() const override { return resume; }
  };
  PrefixSink rest;
  rest.resume = sink.checkpointed();
  StubModel model2;
  GenerationService svc2(model2, {.batch = {.batch = 2, .threads = 1}});
  svc2.run(stub_job(12, seed, backend), rest);

  MemorySink fresh;
  StubModel model3;
  GenerationService svc3(model3, {.batch = {.batch = 4, .threads = 2}});
  svc3.run(stub_job(12, seed, backend), fresh);
  ASSERT_EQ(rest.records().size(), 12u - rest.resume);
  for (const auto& record : rest.records()) {
    EXPECT_EQ(record.graph, fresh.records()[record.index].graph)
        << "design " << record.index;
  }
}

// ------------------------------------------------------------------ daemon

class DaemonTest : public ServerDiskTest {
 protected:
  std::filesystem::path socket_path() const {
    // Unix socket paths are limited to ~107 bytes; keep it short.
    return std::filesystem::path(::testing::TempDir()) /
           ("synd_" + std::to_string(::getpid()) + "_" +
            std::to_string(socket_counter_++) + ".sock");
  }

  DaemonConfig stub_config(const std::filesystem::path& socket) const {
    DaemonConfig config;
    config.socket_path = socket;
    config.max_concurrent = 2;
    config.factory = [](const std::string& name) {
      if (name != "stub") {
        throw std::invalid_argument("unknown backend \"" + name + "\"");
      }
      return stub_backend();
    };
    return config;
  }

  JobSpec stub_spec(std::size_t count, std::uint64_t seed) const {
    JobSpec spec;
    spec.count = count;
    spec.seed = seed;
    spec.backend = "stub";
    spec.out = dir_;
    spec.batch = 2;
    spec.threads = 1;
    spec.shard_size = 2;
    spec.queue = 4;
    spec.synth_stats = false;
    return spec;
  }

  static std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  mutable int socket_counter_ = 0;
};

/// start() + serve()-on-a-thread wrapper so tests tear down cleanly.
class RunningDaemon {
 public:
  explicit RunningDaemon(const DaemonConfig& config) : daemon_(config) {
    daemon_.start();
    thread_ = std::thread([this] { daemon_.serve(); });
  }
  ~RunningDaemon() { stop(true); }
  void stop(bool drain) {
    if (thread_.joinable()) {
      daemon_.request_stop(drain);
      thread_.join();
    }
  }
  Daemon& operator*() { return daemon_; }

 private:
  Daemon daemon_;
  std::thread thread_;
};

TEST_F(DaemonTest, SubmitStreamStatusEndToEnd) {
  const auto socket = socket_path();
  RunningDaemon daemon(stub_config(socket));

  auto conn = ClientConnection::connect_unix(socket);
  const std::string id = conn.submit(stub_spec(7, 11), "tester");
  EXPECT_EQ(id, "job-1");

  // STREAM replays + follows to the terminal event.
  std::vector<Json> events;
  const std::string state =
      conn.stream(id, [&](const Json& event) { events.push_back(event); });
  EXPECT_EQ(state, "done");
  std::size_t records = 0;
  for (const Json& event : events) {
    records += event.at("event").str() == "record";
  }
  EXPECT_EQ(records, 7u);

  // STATUS after completion reports frozen progress counters.
  const Json job = conn.status(id);
  EXPECT_EQ(job.at("state").str(), "done");
  EXPECT_EQ(job.at("produced").u64(), 7u);
  EXPECT_EQ(job.at("written").u64(), 7u);
  EXPECT_EQ(job.at("count").u64(), 7u);
  EXPECT_EQ(job.at("backend").str(), "stub");

  // The dataset on disk matches a direct service run byte for byte.
  const auto direct_dir = dir_.parent_path() /
                          (dir_.filename().string() + "_direct");
  std::filesystem::remove_all(direct_dir);
  {
    const auto backend = stub_backend();
    StubModel model;
    ShardedDiskSink sink({.dir = direct_dir, .seed = 11, .shard_size = 2,
                          .with_synth_stats = false});
    GenerationService svc(model, {.batch = {.batch = 2, .threads = 1},
                                  .queue_capacity = 4});
    svc.run(stub_job(7, 11, backend), sink);
  }
  EXPECT_EQ(read_file(dir_ / "manifest.jsonl"),
            read_file(direct_dir / "manifest.jsonl"));
  for (int i = 0; i < 7; ++i) {
    const auto rel =
        std::filesystem::path("shard_000" + std::to_string(i / 2)) /
        ("synthetic_" + std::to_string(i) + ".v");
    EXPECT_EQ(read_file(dir_ / rel), read_file(direct_dir / rel)) << rel;
  }
  std::filesystem::remove_all(direct_dir);

  // Unknown ids are protocol errors, not crashes.
  EXPECT_THROW(conn.status("job-99"), std::runtime_error);
  EXPECT_THROW(conn.cancel("job-99"), std::runtime_error);
}

TEST_F(DaemonTest, RestartedDaemonResumesFromCheckpoint) {
  const auto socket = socket_path();
  {
    RunningDaemon daemon(stub_config(socket));
    auto conn = ClientConnection::connect_unix(socket);
    const std::string id = conn.submit(stub_spec(3, 29));
    EXPECT_EQ(conn.stream(id, nullptr), "done");
  }  // daemon fully torn down — socket gone, dataset checkpointed at 3

  // A "restarted" daemon on the same socket path + output dir picks up
  // the checkpoint: extending to 8 produces only designs 3..7.
  RunningDaemon daemon(stub_config(socket));
  auto conn = ClientConnection::connect_unix(socket);
  const std::string id = conn.submit(stub_spec(8, 29));
  EXPECT_EQ(conn.stream(id, nullptr), "done");
  const Json job = conn.status(id);
  EXPECT_EQ(job.at("produced").u64(), 8u);  // overall dataset progress
  EXPECT_EQ(job.at("written").u64(), 5u);   // this run wrote 5

  // Byte-identical to one uninterrupted direct run of 8.
  const auto direct_dir =
      dir_.parent_path() / (dir_.filename().string() + "_direct");
  std::filesystem::remove_all(direct_dir);
  {
    const auto backend = stub_backend();
    StubModel model;
    ShardedDiskSink sink({.dir = direct_dir, .seed = 29, .shard_size = 2,
                          .with_synth_stats = false});
    GenerationService svc(model, {.batch = {.batch = 3, .threads = 2}});
    svc.run(stub_job(8, 29, backend), sink);
  }
  EXPECT_EQ(read_file(dir_ / "manifest.jsonl"),
            read_file(direct_dir / "manifest.jsonl"));
  for (int i = 0; i < 8; ++i) {
    const auto rel =
        std::filesystem::path("shard_000" + std::to_string(i / 2)) /
        ("synthetic_" + std::to_string(i) + ".v");
    EXPECT_EQ(read_file(dir_ / rel), read_file(direct_dir / rel)) << rel;
  }
  std::filesystem::remove_all(direct_dir);
}

TEST_F(DaemonTest, TwoClientsOnSeparateConnectionsBothComplete) {
  const auto socket = socket_path();
  RunningDaemon daemon(stub_config(socket));

  const auto dir_a = dir_ / "a";
  const auto dir_b = dir_ / "b";
  auto spec_a = stub_spec(4, 41);
  spec_a.out = dir_a;
  auto spec_b = stub_spec(4, 42);
  spec_b.out = dir_b;

  auto conn_a = ClientConnection::connect_unix(socket);
  auto conn_b = ClientConnection::connect_unix(socket);
  const std::string id_a = conn_a.submit(spec_a, "alice");
  const std::string id_b = conn_b.submit(spec_b, "bob");
  // Tail concurrently from both connections.
  std::string state_b;
  std::thread tail_b([&] { state_b = conn_b.stream(id_b, nullptr); });
  const std::string state_a = conn_a.stream(id_a, nullptr);
  tail_b.join();
  EXPECT_EQ(state_a, "done");
  EXPECT_EQ(state_b, "done");
  EXPECT_TRUE(std::filesystem::exists(dir_a / "manifest.jsonl"));
  EXPECT_TRUE(std::filesystem::exists(dir_b / "manifest.jsonl"));
  const Json job_a = conn_b.status(id_a);  // any connection may ask
  EXPECT_EQ(job_a.at("client").str(), "alice");
}

TEST_F(DaemonTest, ConcurrentJobsOnSameOutputDirFailFastViaLockfile) {
  const auto socket = socket_path();
  auto config = stub_config(socket);
  config.max_concurrent = 2;  // both jobs genuinely run at once
  RunningDaemon daemon(config);

  auto conn = ClientConnection::connect_unix(socket);
  // Same output dir; one must win, the other must fail on the lockfile.
  const std::string first = conn.submit(stub_spec(300, 51), "alice");
  const std::string second = conn.submit(stub_spec(300, 51), "bob");
  const std::string state_first = conn.stream(first, nullptr);
  const std::string state_second = conn.stream(second, nullptr);
  const bool first_won = state_first == "done";
  EXPECT_EQ(state_first == "done" || state_second == "done", true);
  const std::string& loser = first_won ? second : first;
  const Json job = conn.status(loser);
  EXPECT_EQ(job.at("state").str(), "failed");
  EXPECT_NE(job.at("error").str().find("locked by running process"),
            std::string::npos)
      << job.dump();
}

TEST_F(DaemonTest, CancelQueuedJobEndsItsStream) {
  const auto socket = socket_path();
  auto config = stub_config(socket);
  config.max_concurrent = 1;
  RunningDaemon daemon(config);

  auto conn = ClientConnection::connect_unix(socket);
  // Big head job holds the single slot while we cancel the queued one.
  const std::string head = conn.submit(stub_spec(400, 61), "alice");
  auto queued_spec = stub_spec(4, 62);
  queued_spec.out = dir_ / "queued";
  const std::string queued = conn.submit(queued_spec, "alice");
  const Json cancel = conn.cancel(queued);
  EXPECT_EQ(cancel.at("state").str(), "cancelled");
  // Its stream terminates immediately with a cancelled end event.
  EXPECT_EQ(conn.stream(queued, nullptr), "cancelled");
  EXPECT_FALSE(std::filesystem::exists(dir_ / "queued"));
  // Cancel the head too so teardown does not wait out 400 designs.
  conn.cancel(head);
  const Json job = conn.status(head);
  EXPECT_TRUE(job.at("state").str() == "running" ||
              job.at("state").str() == "cancelled");
  daemon.stop(false);
}

TEST_F(DaemonTest, UnknownBackendFailsTheJobWithClearError) {
  const auto socket = socket_path();
  RunningDaemon daemon(stub_config(socket));
  auto conn = ClientConnection::connect_unix(socket);
  auto spec = stub_spec(2, 71);
  spec.backend = "nope";
  const std::string id = conn.submit(spec);
  EXPECT_EQ(conn.stream(id, nullptr), "failed");
  const Json job = conn.status(id);
  EXPECT_NE(job.at("error").str().find("nope"), std::string::npos);
}

TEST_F(DaemonTest, MalformedLinesGetErrorResponsesNotDisconnects) {
  const auto socket = socket_path();
  RunningDaemon daemon(stub_config(socket));
  auto conn = ClientConnection::connect_unix(socket);
  // The second input nests far past util::Json::kMaxDepth: it must get a
  // parse error, not overflow the handler's stack.
  for (const std::string& bad :
       {std::string("this is not json"), std::string(200'000, '[')}) {
    conn.send_line(bad);
    const auto reply = conn.recv_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(Json::parse(*reply).at("ok").boolean());
  }
  // The connection survives and still serves real requests.
  conn.send_line(R"({"cmd":"ping"})");
  const auto reply = conn.recv_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(Json::parse(*reply).at("ok").boolean());
}

TEST_F(DaemonTest, OversizedRequestLineClosesOnlyThatConnection) {
  const auto socket = socket_path();
  RunningDaemon daemon(stub_config(socket));
  // 2 MiB with no newline, past the server's 1 MiB request-line cap. The
  // daemon hangs up mid-write, so the write itself may fail.
  const int fd = server::io::connect_unix(socket);
  (void)server::io::write_all(fd, std::string(std::size_t{2} << 20, 'x'));
  std::string carry;
  if (const auto reply = server::io::read_line(fd, carry)) {
    EXPECT_FALSE(Json::parse(*reply).at("ok").boolean());
  }
  EXPECT_FALSE(server::io::read_line(fd, carry).has_value());  // closed
  ::close(fd);
  // Only that connection is gone: a new one still PINGs.
  auto conn = ClientConnection::connect_unix(socket);
  conn.send_line(R"({"cmd":"ping"})");
  const auto reply = conn.recv_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(Json::parse(*reply).at("server").str(), "syn_daemon");
}

}  // namespace
}  // namespace syn
