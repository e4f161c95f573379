// Coordinator: the fleet-level daemon.
//
//   synctl / any protocol client
//        │ the SAME NDJSON grammar a single syn_daemon speaks
//        ▼
//   Coordinator ── server::JobServer (scheduler, admission, GC, STREAM)
//        │ job body = FleetDispatcher::run
//        ├── WorkerRegistry ◄── heartbeat thread (HELLO/HEARTBEAT probes)
//        ▼
//   syn_daemon workers (each runs its sub-range through the normal
//   GenerationService / ShardedDiskSink path)
//
// A client cannot tell a coordinator from a worker except by asking
// (PING answers "syn_coordinator", WORKERS answers the membership table
// instead of not_coordinator): SUBMIT/STATUS/LIST/CANCEL/STREAM behave
// identically (including terminal-job GC and admission), stream events
// carry the coordinator's job id, and the final dataset is byte-identical
// to the single-daemon run.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/dispatcher.hpp"
#include "fleet/registry.hpp"
#include "server/job_server.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"

namespace syn::fleet {

struct CoordinatorConfig : server::ServerConfig {
  CoordinatorConfig() { max_concurrent = 2; }
  /// Worker endpoints ("host:port" or socket paths) registered at
  /// construction; the heartbeat loop brings them live.
  std::vector<std::string> workers;
  /// Probe interval and consecutive misses before eviction.
  std::chrono::milliseconds hb_interval{1000};
  std::size_t hb_miss_limit = 3;
  /// Bound on worker connects (probes, dispatch, remote cancel), ms.
  int connect_timeout_ms = 2000;
  /// Dispatch attempts per sub-range before a fleet job fails.
  std::size_t max_attempts = 6;
};

/// The coordinator role on the shared server core: a job body is a
/// FleetDispatcher run, SUBMIT also needs a live worker, WORKERS answers
/// the membership table, and a heartbeat thread keeps that table live.
class Coordinator : private server::JobServer::Role {
 public:
  explicit Coordinator(CoordinatorConfig config);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the listeners, starts the acceptors and the heartbeat loop
  /// (after one synchronous probe sweep, so workers that are already up
  /// are live before the first SUBMIT can arrive).
  void start();
  /// Blocks until shutdown (protocol request or request_stop), then
  /// tears everything down. start() + serve() is the main loop.
  void serve() { server_.serve(); }
  void request_stop(bool drain) { server_.request_stop(drain); }

  /// One synchronous probe sweep over every registered worker — the
  /// heartbeat loop calls this each interval; tests call it directly to
  /// step liveness deterministically.
  void probe_workers();

  [[nodiscard]] const CoordinatorConfig& config() const { return config_; }
  [[nodiscard]] WorkerRegistry& registry() { return registry_; }
  [[nodiscard]] server::MetricsRegistry& metrics() {
    return server_.metrics();
  }
  [[nodiscard]] server::JobScheduler& scheduler() {
    return server_.scheduler();
  }

 private:
  void run_job(const server::JobSpec& spec,
               const server::JobScheduler::Handle& handle,
               const server::JobServer::Emit& emit) override;
  util::Json workers_reply() override;
  /// Rejects with the typed no_workers while no worker is live.
  std::optional<util::Json> admit(const server::JobSpec& spec) override;
  void add_heartbeat_fields(util::Json& reply) override;
  /// The per-worker "fleet" section.
  void add_metrics(util::Json& metrics) override;
  /// Stops probing; dispatchers keep whatever liveness view exists.
  void before_teardown() override;
  void heartbeat_loop();

  CoordinatorConfig config_;
  WorkerRegistry registry_;

  std::mutex hb_mutex_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;
  std::thread heartbeat_thread_;

  /// Declared LAST: its destructor stops the heartbeat loop and joins
  /// fleet job bodies, which may touch any member above.
  server::JobServer server_;
};

}  // namespace syn::fleet
