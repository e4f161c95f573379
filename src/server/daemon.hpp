// The dataset-generation daemon: a resident socket front end over
// service::GenerationService, built on the shared server core.
//
//   JobServer (listeners, verbs, scheduler, admission, GC; job_server.hpp)
//        │ job body, on a pool thread
//        ▼
//   GenerationService ── TeeSink ──► ShardedDiskSink      (durable dataset)
//                            └─────► StreamingManifestSink ► job event log
//                                                             │ replay+follow
//                                                             ▼
//                                                        STREAM subscribers
//
// Jobs run through the same ShardedDiskSink as a local generate_dataset
// invocation — same lockfile, same checkpoint, same manifests — so a
// daemon job is byte-identical to the equivalent CLI run, a killed daemon
// resumes from the checkpoint on restart, and a daemon job can even pick
// up where an interrupted CLI run left off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "core/generator.hpp"
#include "core/registry.hpp"
#include "server/job_server.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace syn::server {

/// A generator ready to serve jobs: the fitted model plus the attribute
/// sampler that conditions each design. Built once per backend name and
/// cached for the daemon's lifetime (models are read-only after fit, so
/// concurrent jobs share one instance).
struct FittedBackend {
  std::shared_ptr<core::GeneratorModel> model;
  /// Draws design i's conditioning attributes; must depend only on
  /// (i, rng) so daemon jobs reproduce local runs exactly.
  std::function<graph::NodeAttrs(std::size_t index, util::Rng& rng)> attrs;
};

/// Builds + fits a backend by registry name; throws for unknown names.
using BackendFactory = std::function<FittedBackend(const std::string& name)>;

/// The dataset-production model tuning that make_default_backend builds
/// every backend with. Single-sourced on purpose: byte-identical
/// daemon-vs-CLI output depends on both sides constructing the model
/// identically.
[[nodiscard]] core::BackendConfig default_backend_config();

/// Node count of design i under the default attrs formula (mixed 60/80/
/// 100-node designs), shared for the same byte-identity reason.
[[nodiscard]] constexpr std::size_t default_attr_nodes(std::size_t i) {
  return 60 + 20 * (i % 3);
}

/// The production factory: core::make_generator(default_backend_config),
/// fitted on the 22-design RTL corpus, attrs drawn from an AttrSampler
/// over that corpus at default_attr_nodes(i). generate_dataset's local
/// runs build their model with it too, so daemon jobs match them byte
/// for byte.
FittedBackend make_default_backend(const std::string& name,
                                   std::ostream* log = nullptr);

struct DaemonConfig : ServerConfig {
  /// Backend construction hook; null = make_default_backend. Tests
  /// inject cheap stub models here.
  BackendFactory factory;
};

/// The worker role on the shared server core: jobs run locally through
/// GenerationService, PING/HELLO answer "syn_daemon"/"worker", WORKERS
/// is the typed not_coordinator error.
class Daemon : private JobServer::Role {
 public:
  explicit Daemon(DaemonConfig config);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the listeners and starts accepting. Throws on bind failure
  /// (socket path in use by a live daemon, TCP port taken, ...).
  void start() { server_.start(); }
  /// Blocks until a protocol shutdown request (or request_stop) arrives,
  /// then tears down: stops intake, drains or cancels the scheduler,
  /// closes every connection, joins every thread. start() + serve() is
  /// the daemon main loop.
  void serve() { server_.serve(); }
  /// Asynchronous stop trigger (signal handlers, tests). drain=true
  /// finishes queued + running jobs first.
  void request_stop(bool drain) { server_.request_stop(drain); }

  [[nodiscard]] const DaemonConfig& config() const { return config_; }
  [[nodiscard]] JobScheduler& scheduler() { return server_.scheduler(); }
  [[nodiscard]] MetricsRegistry& metrics() { return server_.metrics(); }

 private:
  void run_job(const JobSpec& spec, const JobScheduler::Handle& handle,
               const JobServer::Emit& emit) override;
  util::Json workers_reply() override;
  void add_heartbeat_fields(util::Json& reply) override;
  /// Synth-cache hit rate and the inference SIMD tier.
  void add_metrics(util::Json& metrics) override;
  FittedBackend fitted_backend(const std::string& name);

  DaemonConfig config_;

  std::mutex backends_mutex_;
  struct BackendEntry {
    bool building = true;
    FittedBackend backend;
    std::string error;
  };
  std::map<std::string, std::shared_ptr<BackendEntry>> backends_;
  std::condition_variable backend_ready_;

  /// Cumulative microseconds generation producers spent blocked pushing
  /// into the sink queue (backpressure), across all jobs — rendered as
  /// the sink_stall_ms gauge so a slow disk/synth consumer is visible.
  std::atomic<std::uint64_t> sink_stall_us_{0};

  /// Declared LAST on purpose: its destructor stops the server and joins
  /// every job body, which may touch any member above.
  JobServer server_;
};

}  // namespace syn::server
