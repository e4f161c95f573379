// Fleet tier: the coordinator/worker protocol extensions (HELLO /
// HEARTBEAT / WORKERS, spec.start), seed-range splitting, the
// WorkerRegistry liveness state machine, the typed connect-path errors,
// and the coordinator end to end over real sockets — two-worker byte
// identity against a single-daemon run, worker death mid-job with
// checkpointed failover, heartbeat eviction + re-registration. Part of
// the TSan CI tier — the dispatcher's monitor threads, the heartbeat
// loop and the registry are its concurrency surface.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/generator.hpp"
#include "core/postprocess.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/dispatcher.hpp"
#include "fleet/registry.hpp"
#include "graph/adjacency.hpp"
#include "nn/matrix.hpp"
#include "rtl/generators.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/socket_io.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace syn {
namespace {

using fleet::Coordinator;
using fleet::CoordinatorConfig;
using fleet::FleetDispatcher;
using fleet::WorkerEndpoint;
using fleet::WorkerRegistry;
using fleet::WorkerState;
using server::ClientConnection;
using server::Daemon;
using server::DaemonConfig;
using server::DaemonError;
using server::FittedBackend;
using server::JobSpec;
using server::Request;
using service::GenerationService;
using service::ShardedDiskSink;
using util::Json;

// ---------------------------------------------------------------- protocol

TEST(FleetProtocol, FleetVerbsRoundTrip) {
  std::vector<Request> requests;
  {
    Request r;  // a coordinator introducing itself
    r.cmd = Request::Cmd::kHello;
    r.node = "coordinator-9";
    requests.push_back(r);
  }
  {
    Request r;  // an anonymous probe
    r.cmd = Request::Cmd::kHello;
    requests.push_back(r);
  }
  {
    Request r;
    r.cmd = Request::Cmd::kHeartbeat;
    requests.push_back(r);
  }
  {
    Request r;
    r.cmd = Request::Cmd::kWorkers;
    requests.push_back(r);
  }
  {
    Request r;  // a sharded sub-range: start rides in the spec
    r.cmd = Request::Cmd::kSubmit;
    r.spec = {.count = 12, .seed = 7};
    r.spec.start = 6;
    requests.push_back(r);
  }
  for (const Request& request : requests) {
    const std::string line = server::encode(request);
    EXPECT_EQ(server::parse_request(line), request) << line;
  }
  // start == 0 is the default and must be omitted from the encoding.
  Request plain;
  plain.cmd = Request::Cmd::kSubmit;
  plain.spec = {.count = 3, .seed = 1};
  EXPECT_EQ(server::encode(plain).find("start"), std::string::npos);
}

TEST(FleetProtocol, MalformedHelloIsAProtocolError) {
  EXPECT_THROW(server::parse_request(R"({"cmd":"hello","node":42})"),
               server::ProtocolError);
}

// ------------------------------------------------------------ split_ranges

using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

TEST(SplitRanges, DistributesRemainderToLeadingRanges) {
  EXPECT_EQ(FleetDispatcher::split_ranges(0, 10, 3),
            (Ranges{{0, 4}, {4, 7}, {7, 10}}));
  EXPECT_EQ(FleetDispatcher::split_ranges(0, 7, 2), (Ranges{{0, 4}, {4, 7}}));
  EXPECT_EQ(FleetDispatcher::split_ranges(0, 10, 1), (Ranges{{0, 10}}));
}

TEST(SplitRanges, HonorsStartOffset) {
  EXPECT_EQ(FleetDispatcher::split_ranges(2, 10, 4),
            (Ranges{{2, 4}, {4, 6}, {6, 8}, {8, 10}}));
}

TEST(SplitRanges, ClampsShardCountToTotal) {
  EXPECT_EQ(FleetDispatcher::split_ranges(0, 3, 8),
            (Ranges{{0, 1}, {1, 2}, {2, 3}}));
  EXPECT_EQ(FleetDispatcher::split_ranges(0, 5, 0), (Ranges{{0, 5}}));
}

TEST(SplitRanges, EmptyRangeYieldsNoShards) {
  EXPECT_TRUE(FleetDispatcher::split_ranges(5, 5, 2).empty());
  EXPECT_TRUE(FleetDispatcher::split_ranges(6, 5, 2).empty());
}

// --------------------------------------------------------------- endpoints

TEST(WorkerEndpointParse, ClassifiesPathsAndHostPorts) {
  const WorkerEndpoint unix_ep = WorkerEndpoint::parse("/tmp/w1.sock");
  EXPECT_EQ(unix_ep.kind, WorkerEndpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.socket, "/tmp/w1.sock");
  EXPECT_EQ(unix_ep.label, "/tmp/w1.sock");

  // No ':' at all is a relative socket path.
  EXPECT_EQ(WorkerEndpoint::parse("w1.sock").kind,
            WorkerEndpoint::Kind::kUnix);
  // A '/' wins even when the text contains ':'.
  EXPECT_EQ(WorkerEndpoint::parse("/tmp/odd:name.sock").kind,
            WorkerEndpoint::Kind::kUnix);

  const WorkerEndpoint tcp_ep = WorkerEndpoint::parse("127.0.0.1:9311");
  EXPECT_EQ(tcp_ep.kind, WorkerEndpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep.host, "127.0.0.1");
  EXPECT_EQ(tcp_ep.port, 9311);
  EXPECT_EQ(tcp_ep.label, "127.0.0.1:9311");
}

TEST(WorkerEndpointParse, RejectsUnparsableEndpoints) {
  EXPECT_THROW(WorkerEndpoint::parse(""), std::invalid_argument);
  EXPECT_THROW(WorkerEndpoint::parse("host:notaport"), std::invalid_argument);
  EXPECT_THROW(WorkerEndpoint::parse("host:0"), std::invalid_argument);
  EXPECT_THROW(WorkerEndpoint::parse("host:70000"), std::invalid_argument);
  EXPECT_THROW(WorkerEndpoint::parse(":9311"), std::invalid_argument);
  EXPECT_THROW(WorkerEndpoint::parse("host:"), std::invalid_argument);
}

// ---------------------------------------------------------------- registry

TEST(WorkerRegistryTest, LivenessStateMachine) {
  WorkerRegistry registry(/*miss_limit=*/2);
  registry.add("a.sock");
  registry.add("b.sock");
  registry.add("a.sock");  // duplicate labels are ignored
  EXPECT_EQ(registry.size(), 2u);

  // Never-seen workers stay kUnknown through any number of misses:
  // there is nothing to evict.
  EXPECT_EQ(registry.note_failure("a.sock"), WorkerState::kUnknown);
  EXPECT_EQ(registry.note_failure("a.sock"), WorkerState::kUnknown);
  EXPECT_EQ(registry.evictions(), 0u);

  // First successful probe registers.
  EXPECT_TRUE(registry.note_success("a.sock", {.node = "w-a", .rtt_ms = 1.5}));
  EXPECT_EQ(registry.live_count(), 1u);
  EXPECT_FALSE(registry.note_success("a.sock", {.node = "w-a"}));  // still live

  // One miss demotes to suspect, miss_limit consecutive misses evict.
  EXPECT_EQ(registry.note_failure("a.sock"), WorkerState::kSuspect);
  EXPECT_EQ(registry.suspect_count(), 1u);
  EXPECT_EQ(registry.note_failure("a.sock"), WorkerState::kDead);
  EXPECT_EQ(registry.dead_count(), 1u);
  EXPECT_EQ(registry.evictions(), 1u);
  EXPECT_TRUE(registry.live().empty());

  // A probe success on a dead worker is a re-registration.
  EXPECT_TRUE(registry.note_success("a.sock", {.node = "w-a2"}));
  EXPECT_EQ(registry.reregistrations(), 1u);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].state, WorkerState::kLive);
  EXPECT_EQ(snapshot[0].node, "w-a2");
  EXPECT_EQ(snapshot[0].missed, 0u);
  EXPECT_EQ(snapshot[1].state, WorkerState::kUnknown);

  // A recovery from suspect does not count as a re-registration.
  registry.note_failure("a.sock");
  EXPECT_FALSE(registry.note_success("a.sock", {.node = "w-a2"}));
  EXPECT_EQ(registry.reregistrations(), 1u);

  // Unknown labels are ignored, not created.
  EXPECT_FALSE(registry.note_success("nope.sock", {}));
  EXPECT_EQ(registry.note_failure("nope.sock"), WorkerState::kUnknown);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(WorkerRegistryTest, MissLimitZeroClampsToOne) {
  WorkerRegistry registry(/*miss_limit=*/0);
  EXPECT_EQ(registry.miss_limit(), 1u);
  registry.add("a.sock");
  registry.note_success("a.sock", {});
  // With the clamped limit a single miss evicts (kLive -> kSuspect ->
  // kDead in one note_failure).
  EXPECT_EQ(registry.note_failure("a.sock"), WorkerState::kDead);
}

// ------------------------------------------------------- connect-path errors

TEST(ConnectPath, MissingUnixSocketThrowsTypedErrorFast) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)ClientConnection::connect_unix("/nonexistent/w.sock",
                                                    /*timeout_ms=*/500),
               server::io::ConnectError);
  EXPECT_THROW((void)ClientConnection::connect_unix("/nonexistent/w.sock"),
               server::io::ConnectError);
  // Both forms fail on the missing path, not by waiting out a timeout.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST(ConnectPath, BadTcpEndpointsThrowTypedErrors) {
  EXPECT_THROW((void)ClientConnection::connect_tcp("not-an-ip", 9311, 500),
               server::io::ConnectError);
  try {
    // Port 1 on loopback: nothing listens there, so a bounded connect
    // reports refusal (or the timeout) as a ConnectError naming the
    // endpoint — never a hung thread.
    (void)ClientConnection::connect_tcp("127.0.0.1", 1, 500);
    FAIL() << "connect to a closed port must throw";
  } catch (const server::io::ConnectError& e) {
    EXPECT_NE(std::string(e.what()).find("127.0.0.1"), std::string::npos)
        << e.what();
  }
}

// ----------------------------------------------------------- metric names

TEST(FlattenMetrics, MatchesRenderedNamesMinusPrefix) {
  server::MetricsRegistry registry;
  registry.inc("submitted", 3);
  registry.register_gauge("workers_live", [] { return 2; });
  registry.declare_track("hb_rtt_ms", 0.0, 100.0, 10);
  registry.observe("hb_rtt_ms", 4.0);
  const Json snapshot = registry.snapshot();

  double counter = -1.0, gauge = -1.0, track_count = -1.0;
  for (const auto& [name, value] : server::flatten_metrics(snapshot)) {
    if (name == "counters_submitted") counter = value;
    if (name == "gauges_workers_live") gauge = value;
    if (name == "latency_hb_rtt_ms_count") track_count = value;
    // Every flattened name must appear in the text render as syn_<name>.
    EXPECT_NE(server::render_metrics_text(snapshot).find("syn_" + name),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(counter, 3.0);
  EXPECT_EQ(gauge, 2.0);
  EXPECT_EQ(track_count, 1.0);
}

// -------------------------------------------------------------- e2e fixture

/// Same cheap deterministic model the server tests use: output is a pure
/// function of (attrs, rng stream), so fleet runs and direct runs can be
/// compared byte for byte.
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

/// StubModel slowed to a fixed per-design delay — identical output, but
/// a range takes long enough to kill its worker mid-job.
class DelayStubModel : public StubModel {
 public:
  explicit DelayStubModel(std::chrono::milliseconds delay) : delay_(delay) {}
  graph::Graph generate(const graph::NodeAttrs& attrs,
                        util::Rng& rng) override {
    std::this_thread::sleep_for(delay_);
    return StubModel::generate(attrs, rng);
  }

 private:
  std::chrono::milliseconds delay_;
};

FittedBackend stub_backend(std::chrono::milliseconds delay =
                               std::chrono::milliseconds(0)) {
  auto sampler = std::make_shared<core::AttrSampler>();
  sampler->fit({rtl::make_counter(4), rtl::make_fifo_ctrl(2),
                rtl::make_fsm(2, 2)});
  std::shared_ptr<core::GeneratorModel> model;
  if (delay.count() > 0) {
    model = std::make_shared<DelayStubModel>(delay);
  } else {
    model = std::make_shared<StubModel>();
  }
  return {model, [sampler](std::size_t i, util::Rng& rng) {
            return sampler->sample(10 + 2 * (i % 3), rng);
          }};
}

/// start() + serve()-on-a-thread wrappers so tests tear down cleanly.
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

 private:
  Daemon daemon_;
  std::thread thread_;
};

class RunningCoordinator {
 public:
  explicit RunningCoordinator(const CoordinatorConfig& config)
      : coordinator_(config) {
    coordinator_.start();
    thread_ = std::thread([this] { coordinator_.serve(); });
  }
  ~RunningCoordinator() { stop(true); }
  void stop(bool drain) {
    if (thread_.joinable()) {
      coordinator_.request_stop(drain);
      thread_.join();
    }
  }
  Coordinator* operator->() { return &coordinator_; }

 private:
  Coordinator coordinator_;
  std::thread thread_;
};

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("syn_fleet_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path socket_path(const std::string& tag) const {
    // Unix socket paths are limited to ~107 bytes; keep it short.
    return std::filesystem::path(::testing::TempDir()) /
           ("synf_" + std::to_string(::getpid()) + "_" + tag + ".sock");
  }

  DaemonConfig worker_config(const std::filesystem::path& socket,
                             const std::string& node,
                             std::chrono::milliseconds delay =
                                 std::chrono::milliseconds(0)) const {
    DaemonConfig config;
    config.socket_path = socket;
    config.node_id = node;
    config.max_concurrent = 2;
    config.factory = [delay](const std::string& name) {
      if (name != "stub") {
        throw std::invalid_argument("unknown backend \"" + name + "\"");
      }
      return stub_backend(delay);
    };
    return config;
  }

  CoordinatorConfig coordinator_config(
      const std::filesystem::path& socket,
      std::vector<std::string> workers) const {
    CoordinatorConfig config;
    config.socket_path = socket;
    config.workers = std::move(workers);
    config.node_id = "coord-test";
    // Liveness is stepped explicitly via probe_workers() (or driven by
    // the dispatcher's own failure notes); a huge interval keeps the
    // background heartbeat loop out of the tests' way.
    config.hb_interval = std::chrono::milliseconds(3'600'000);
    config.hb_miss_limit = 2;
    config.connect_timeout_ms = 2000;
    return config;
  }

  JobSpec stub_spec(std::size_t count, std::uint64_t seed) const {
    JobSpec spec;
    spec.count = count;
    spec.seed = seed;
    spec.backend = "stub";
    spec.out = dir_ / "fleet";
    spec.batch = 2;
    spec.threads = 1;
    spec.shard_size = 4;
    spec.queue = 4;
    spec.synth_stats = false;
    return spec;
  }

  /// One uninterrupted local run of the same spec, for byte comparison.
  std::filesystem::path direct_run(std::size_t count,
                                   std::uint64_t seed) const {
    const auto dir = dir_ / "direct";
    const auto backend = stub_backend();
    StubModel model;
    ShardedDiskSink sink({.dir = dir, .seed = seed, .shard_size = 4,
                          .with_synth_stats = false});
    GenerationService svc(model, {.batch = {.batch = 2, .threads = 1},
                                  .queue_capacity = 4});
    svc.run({.count = count, .seed = seed, .attrs = backend.attrs}, sink);
    return dir;
  }

  static std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  void expect_byte_identical(const std::filesystem::path& fleet_dir,
                             const std::filesystem::path& direct_dir,
                             std::size_t count) const {
    EXPECT_EQ(read_file(fleet_dir / "manifest.jsonl"),
              read_file(direct_dir / "manifest.jsonl"));
    EXPECT_EQ(read_file(fleet_dir / "checkpoint.txt"),
              read_file(direct_dir / "checkpoint.txt"));
    for (std::size_t i = 0; i < count; ++i) {
      const auto rel =
          std::filesystem::path("shard_000" + std::to_string(i / 4)) /
          ("synthetic_" + std::to_string(i) + ".v");
      const std::string fleet_text = read_file(fleet_dir / rel);
      EXPECT_FALSE(fleet_text.empty()) << rel;
      EXPECT_EQ(fleet_text, read_file(direct_dir / rel)) << rel;
    }
  }

  std::filesystem::path dir_;
};

// ------------------------------------------------------------------- e2e

TEST_F(FleetTest, TwoWorkerFleetMatchesSingleDaemonByteForByte) {
  const auto w1_sock = socket_path("bi_w1");
  const auto w2_sock = socket_path("bi_w2");
  RunningDaemon worker1(worker_config(w1_sock, "w1"));
  RunningDaemon worker2(worker_config(w2_sock, "w2"));
  RunningCoordinator coordinator(coordinator_config(
      socket_path("bi_c"), {w1_sock.string(), w2_sock.string()}));
  EXPECT_EQ(coordinator->registry().live_count(), 2u);

  auto conn = ClientConnection::connect_unix(socket_path("bi_c"));
  // The coordinator is protocol-indistinguishable from a worker except
  // by identity.
  conn.send_line(R"({"cmd":"ping"})");
  auto reply = conn.recv_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(Json::parse(*reply).at("server").str(), "syn_coordinator");

  const std::string id = conn.submit(stub_spec(10, 77), "tester");
  std::vector<Json> events;
  const std::string state =
      conn.stream(id, [&](const Json& event) { events.push_back(event); });
  EXPECT_EQ(state, "done");

  // Exactly one record event per design (no failover, no replay), every
  // event rewritten to the fleet job id, summary before end.
  std::set<std::size_t> indices;
  std::size_t records = 0;
  bool summary_seen = false;
  for (const Json& event : events) {
    EXPECT_EQ(event.at("id").str(), id);
    const std::string kind = event.at("event").str();
    if (kind == "record") {
      ++records;
      indices.insert(event.at("index").u64());
      EXPECT_FALSE(summary_seen) << "record after summary";
    } else if (kind == "summary") {
      summary_seen = true;
      EXPECT_EQ(event.at("generator").str(), "Stub");
      EXPECT_EQ(event.at("seed").u64(), 77u);
      EXPECT_EQ(event.at("count").u64(), 10u);
    }
  }
  EXPECT_EQ(records, 10u);
  EXPECT_EQ(indices.size(), 10u);
  EXPECT_TRUE(summary_seen);

  // STATUS reflects the merged dataset; the scratch part tree is gone.
  const Json job = conn.status(id);
  EXPECT_EQ(job.at("state").str(), "done");
  EXPECT_EQ(job.at("produced").u64(), 10u);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "fleet" / ".parts"));

  // Both workers served a range, and the fleet metrics saw the stream.
  const Json metrics = conn.metrics();
  EXPECT_EQ(metrics.at("fleet").object().size(), 2u);
  double forwarded = -1.0, live = -1.0, dispatched = 0.0;
  for (const auto& [name, value] : server::flatten_metrics(metrics)) {
    if (name == "counters_records_forwarded") forwarded = value;
    if (name == "gauges_workers_live") live = value;
    if (name.find("dispatched") != std::string::npos) dispatched += value;
  }
  EXPECT_EQ(forwarded, 10.0);
  EXPECT_EQ(live, 2.0);
  EXPECT_EQ(dispatched, 2.0);

  expect_byte_identical(dir_ / "fleet", direct_run(10, 77), 10);
}

TEST_F(FleetTest, WorkerDeathMidJobFailsOverAndStaysByteIdentical) {
  const auto w1_sock = socket_path("fo_w1");
  const auto w2_sock = socket_path("fo_w2");
  // ~30 ms per design: each 6-design range takes ~180 ms, leaving a wide
  // window to kill worker 1 while its range is half done.
  const auto delay = std::chrono::milliseconds(30);
  std::optional<RunningDaemon> worker1(
      std::in_place, worker_config(w1_sock, "w1", delay));
  RunningDaemon worker2(worker_config(w2_sock, "w2", delay));
  RunningCoordinator coordinator(coordinator_config(
      socket_path("fo_c"), {w1_sock.string(), w2_sock.string()}));
  ASSERT_EQ(coordinator->registry().live_count(), 2u);

  auto conn = ClientConnection::connect_unix(socket_path("fo_c"));
  const std::string id = conn.submit(stub_spec(12, 91), "tester");

  // Kill worker 1 without drain as soon as the stream proves the fleet
  // is generating — its range fails over to worker 2 and resumes from
  // the part checkpoint.
  std::mutex mutex;
  std::condition_variable seen;
  std::size_t records = 0;
  std::thread killer([&] {
    std::unique_lock<std::mutex> lock(mutex);
    seen.wait(lock, [&] { return records >= 2; });
    lock.unlock();
    worker1->stop(false);
  });
  std::set<std::size_t> indices;
  const std::string state = conn.stream(id, [&](const Json& event) {
    if (event.at("event").str() != "record") return;
    const std::lock_guard<std::mutex> lock(mutex);
    indices.insert(event.at("index").u64());
    ++records;
    seen.notify_all();
  });
  killer.join();
  EXPECT_EQ(state, "done");

  // Failover may replay the tail between the part's last checkpoint and
  // the dead worker's last forwarded record, so the stream can carry
  // duplicates — but it must cover every design exactly once by index.
  EXPECT_GE(records, 12u);
  EXPECT_EQ(indices.size(), 12u);
  EXPECT_EQ(*indices.begin(), 0u);
  EXPECT_EQ(*indices.rbegin(), 11u);

  // The re-dispatch is visible in the fleet counters.
  double redispatches = 0.0;
  for (const auto& [name, value] : server::flatten_metrics(conn.metrics())) {
    if (name == "counters_fleet_redispatches") redispatches = value;
  }
  EXPECT_GE(redispatches, 1.0);

  // Dead-worker failover must not cost byte identity.
  expect_byte_identical(dir_ / "fleet", direct_run(12, 91), 12);
}

TEST_F(FleetTest, HeartbeatEvictionAndReregistration) {
  const auto w1_sock = socket_path("ev_w1");
  const auto w2_sock = socket_path("ev_w2");
  RunningDaemon worker1(worker_config(w1_sock, "w1"));
  std::optional<RunningDaemon> worker2(std::in_place,
                                       worker_config(w2_sock, "w2"));
  RunningCoordinator coordinator(coordinator_config(
      socket_path("ev_c"), {w1_sock.string(), w2_sock.string()}));
  WorkerRegistry& registry = coordinator->registry();
  ASSERT_EQ(registry.live_count(), 2u);

  // Worker 2 disappears: one missed probe suspects it, the second
  // (miss_limit) evicts it. Worker 1 stays live throughout.
  worker2.reset();
  coordinator->probe_workers();
  EXPECT_EQ(registry.live_count(), 1u);
  EXPECT_EQ(registry.suspect_count(), 1u);
  coordinator->probe_workers();
  EXPECT_EQ(registry.dead_count(), 1u);
  EXPECT_EQ(registry.evictions(), 1u);

  // The membership table reports the states over the wire.
  auto conn = ClientConnection::connect_unix(socket_path("ev_c"));
  {
    const Json workers = conn.workers();
    ASSERT_EQ(workers.array().size(), 2u);
    EXPECT_EQ(workers.array()[0].at("state").str(), "live");
    EXPECT_EQ(workers.array()[0].at("node").str(), "w1");
    EXPECT_EQ(workers.array()[1].at("state").str(), "dead");
  }

  // A dead endpoint keeps being probed: the worker coming back (same
  // socket, new node id) re-registers and serves again.
  worker2.emplace(worker_config(w2_sock, "w2-reborn"));
  coordinator->probe_workers();
  EXPECT_EQ(registry.live_count(), 2u);
  EXPECT_EQ(registry.reregistrations(), 1u);
  {
    const Json workers = conn.workers();
    EXPECT_EQ(workers.array()[1].at("state").str(), "live");
    EXPECT_EQ(workers.array()[1].at("node").str(), "w2-reborn");
  }
}

TEST_F(FleetTest, SubmitWithNoLiveWorkersIsATypedRejection) {
  const auto w_sock = socket_path("nl_w");  // nothing listens here yet
  RunningCoordinator coordinator(
      coordinator_config(socket_path("nl_c"), {w_sock.string()}));
  EXPECT_EQ(coordinator->registry().live_count(), 0u);

  auto conn = ClientConnection::connect_unix(socket_path("nl_c"));
  try {
    (void)conn.submit(stub_spec(2, 13), "tester");
    FAIL() << "submit with no live workers must be rejected";
  } catch (const DaemonError& e) {
    EXPECT_EQ(e.code, server::kErrorCodeNoWorkers);
  }

  // The worker coming up (plus one probe) makes the same submit valid.
  RunningDaemon worker(worker_config(w_sock, "late"));
  coordinator->probe_workers();
  const std::string id = conn.submit(stub_spec(2, 13), "tester");
  EXPECT_EQ(conn.stream(id, nullptr), "done");
}

TEST_F(FleetTest, CoordinatorGcAndAdmissionMatchTheDaemon) {
  const auto w_sock = socket_path("gc_w");
  RunningDaemon worker(worker_config(w_sock, "w1"));
  CoordinatorConfig config =
      coordinator_config(socket_path("gc_c"), {w_sock.string()});
  config.gc_retain = 3;
  config.max_designs_per_job = 10;
  RunningCoordinator coordinator(config);
  auto conn = ClientConnection::connect_unix(socket_path("gc_c"));

  // Over the per-job design limit: a typed rejection that never reaches
  // the scheduler.
  try {
    (void)conn.submit(stub_spec(11, 7), "gc-client");
    FAIL() << "over-size submit must be rejected";
  } catch (const DaemonError& e) {
    EXPECT_EQ(e.code, server::kErrorCodeQuota);
  }
  Json metrics = conn.metrics();
  EXPECT_EQ(metrics.at("jobs").at("submitted").u64(), 0u);
  EXPECT_EQ(metrics.at("counters").at("submit_rejected").u64(), 1u);

  // 2x the retention: the first 3 finished fleet jobs must be evicted.
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    JobSpec spec = stub_spec(4, 7);
    spec.out = dir_ / ("gc" + std::to_string(i));
    ids.push_back(conn.submit(spec, "gc-client"));
    EXPECT_EQ(conn.stream(ids.back(), nullptr), "done");
  }
  // GC runs after each job's "end" event, so poll for the last eviction.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((metrics = conn.metrics()).at("jobs").at("expired").u64() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(metrics.at("jobs").at("expired").u64(), 3u);
  EXPECT_EQ(metrics.at("jobs").at("tracked").u64(), 3u);
  EXPECT_EQ(metrics.at("gauges").at("tracked_specs").i64(), 3);
  EXPECT_EQ(metrics.at("gauges").at("event_logs").i64(), 3);

  // An evicted id answers the typed "expired" on every verb that names
  // it; a retained one still answers STATUS.
  const auto expect_expired = [&](const char* verb, const auto& call) {
    try {
      call();
      ADD_FAILURE() << verb << " of an evicted job must report expired";
    } catch (const DaemonError& e) {
      EXPECT_EQ(e.code, server::kErrorCodeExpired) << verb;
    }
  };
  expect_expired("status", [&] { (void)conn.status(ids.front()); });
  expect_expired("stream", [&] { (void)conn.stream(ids.front(), nullptr); });
  expect_expired("cancel", [&] { (void)conn.cancel(ids.front()); });
  EXPECT_EQ(conn.status(ids.back()).at("state").str(), "done");
}

/// This process's VmSize in MB (from /proc/self/status; 0 if absent).
double vm_size_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stod(line.substr(7)) / 1024;
  }
  return 0.0;
}

TEST_F(FleetTest, ConnectionChurnKeepsVmSizeFlat) {
  const auto w_sock = socket_path("vm_w");
  const auto c_sock = socket_path("vm_c");
  RunningDaemon worker(worker_config(w_sock, "w1"));
  RunningCoordinator coordinator(
      coordinator_config(c_sock, {w_sock.string()}));
  for (const auto& sock : {w_sock, c_sock}) {
    const auto ping = [&](ClientConnection& conn) {
      conn.send_line(R"({"cmd":"ping"})");
      ASSERT_TRUE(conn.recv_line().has_value());
    };
    // Warm-up: glibc reserves address space for the peak number of live
    // threads, not per connection — a 64 MB malloc arena per thread that
    // allocates while all others are taken, and up to 40 MB of cached
    // stacks. Eight connections at once reach a peak the sequential
    // cycles below never exceed.
    {
      std::vector<ClientConnection> burst;
      for (int i = 0; i < 8; ++i) {
        burst.push_back(ClientConnection::connect_unix(sock));
        ping(burst.back());
      }
    }
    const double before = vm_size_mb();
    // Each connection gets a handler thread with an 8 MB stack; unless
    // the server joins handlers that have exited, 500 short connections
    // keep ~4 GB of stacks mapped.
    for (int i = 0; i < 500; ++i) {
      auto conn = ClientConnection::connect_unix(sock);
      ping(conn);
    }
    EXPECT_LT(vm_size_mb() - before, 64.0) << sock;
  }
}

TEST_F(FleetTest, MalformedHelloGetsErrorResponseNotDisconnect) {
  const auto w_sock = socket_path("mh_w");
  RunningDaemon worker(worker_config(w_sock, "w1"));
  RunningCoordinator coordinator(
      coordinator_config(socket_path("mh_c"), {w_sock.string()}));

  auto conn = ClientConnection::connect_unix(socket_path("mh_c"));
  conn.send_line(R"({"cmd":"hello","node":42})");
  auto reply = conn.recv_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(Json::parse(*reply).at("ok").boolean());

  // The connection survives and the well-formed verbs still answer.
  const Json hello = conn.hello("probe");
  EXPECT_EQ(hello.at("role").str(), "coordinator");
  EXPECT_EQ(hello.at("node").str(), "coord-test");
  const Json beat = conn.heartbeat();
  EXPECT_EQ(beat.at("workers_live").u64(), 1u);

  // Worker side: HELLO/HEARTBEAT answer the worker identity, WORKERS is
  // a typed error — only coordinators own a membership table.
  auto worker_conn = ClientConnection::connect_unix(w_sock);
  EXPECT_EQ(worker_conn.hello("coord-test").at("role").str(), "worker");
  EXPECT_EQ(worker_conn.heartbeat().at("node").str(), "w1");
  try {
    (void)worker_conn.workers();
    FAIL() << "workers on a worker daemon must be a typed error";
  } catch (const DaemonError& e) {
    EXPECT_EQ(e.code, server::kErrorCodeNotCoordinator);
  }
}

}  // namespace
}  // namespace syn
