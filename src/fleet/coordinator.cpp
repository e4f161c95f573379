#include "fleet/coordinator.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <exception>
#include <map>
#include <stdexcept>
#include <utility>

namespace syn::fleet {

using server::JobScheduler;
using server::JobSpec;
using util::Json;

namespace {

/// Metric-name-safe form of an endpoint label ("127.0.0.1:9311" ->
/// "127_0_0_1_9311").
std::string sanitize_label(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return out;
}

std::uint64_t u64_field(const Json& json, const char* key) {
  const Json* value = json.find(key);
  return value != nullptr && value->is_number() ? value->u64() : 0;
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : Role("syn_coordinator", "coordinator", "records_forwarded"),
      config_(std::move(config)),
      registry_(config_.hb_miss_limit),
      server_(config_, *this) {
  if (config_.workers.empty()) {
    throw std::invalid_argument("Coordinator: at least one worker endpoint "
                                "is required");
  }
  for (const std::string& endpoint : config_.workers) {
    registry_.add(endpoint);  // throws std::invalid_argument on bad syntax
  }

  server::MetricsRegistry& metrics = server_.metrics();
  metrics.declare_track("hb_rtt_ms", 0.0, 2'000.0, 400);
  metrics.declare_track("fleet_subjob_ms", 0.0, 300'000.0, 600);
  const auto gauge = [&](const char* name, auto read) {
    metrics.register_gauge(name, [this, read] {
      return static_cast<std::int64_t>((registry_.*read)());
    });
  };
  gauge("workers_known", &WorkerRegistry::size);
  gauge("workers_live", &WorkerRegistry::live_count);
  gauge("workers_suspect", &WorkerRegistry::suspect_count);
  gauge("workers_dead", &WorkerRegistry::dead_count);
  gauge("workers_evicted", &WorkerRegistry::evictions);
  gauge("workers_reregistered", &WorkerRegistry::reregistrations);
}

void Coordinator::start() {
  server_.start();
  // One synchronous sweep so workers that are already up are live before
  // the first SUBMIT can arrive.
  probe_workers();
  server_.log_line(std::to_string(registry_.live_count()) + "/" +
                   std::to_string(registry_.size()) + " workers live");
  heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
}

void Coordinator::before_teardown() {
  {
    const std::lock_guard<std::mutex> lock(hb_mutex_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

// -------------------------------------------------------------- heartbeat

void Coordinator::probe_workers() {
  // Pre-sweep states decide HELLO (introduction) vs HEARTBEAT (liveness).
  std::map<std::string, WorkerState> before;
  for (const WorkerInfo& info : registry_.snapshot()) {
    before[info.endpoint.label] = info.state;
  }
  for (const WorkerEndpoint& ep : registry_.endpoints()) {
    const WorkerState prev = before.count(ep.label) != 0
                                 ? before[ep.label]
                                 : WorkerState::kUnknown;
    try {
      auto conn =
          connect_worker(ep, std::max(config_.connect_timeout_ms, 1));
      conn.set_recv_timeout(std::max(config_.connect_timeout_ms, 1));
      const auto t0 = std::chrono::steady_clock::now();
      const bool introduce =
          prev == WorkerState::kUnknown || prev == WorkerState::kDead;
      const Json reply =
          introduce ? conn.hello(config_.node_id) : conn.heartbeat();
      WorkerRegistry::Probe probe;
      probe.rtt_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      if (const Json* node = reply.find("node")) {
        if (node->is_string()) probe.node = node->str();
      }
      probe.running = u64_field(reply, "running");
      probe.queued = u64_field(reply, "queued");
      probe.stall_ms = u64_field(reply, "stall_ms");
      const bool registered = registry_.note_success(ep.label, probe);
      server_.metrics().inc("fleet_heartbeats");
      server_.metrics().observe("hb_rtt_ms", probe.rtt_ms);
      server_.metrics().observe("hb_" + sanitize_label(ep.label) + "_ms",
                                probe.rtt_ms);
      if (registered) {
        server_.log_line(
            "worker " + ep.label + " " +
            (prev == WorkerState::kDead ? "re-registered" : "registered") +
            " (node " + probe.node + ")");
      }
    } catch (const std::exception& e) {
      const WorkerState now = registry_.note_failure(ep.label);
      server_.metrics().inc("fleet_heartbeat_failures");
      if (now == WorkerState::kDead && prev != WorkerState::kDead) {
        server_.log_line("worker " + ep.label + " evicted after " +
                         std::to_string(registry_.miss_limit()) +
                         " missed heartbeats (" + e.what() + ")");
      }
    }
  }
}

void Coordinator::heartbeat_loop() {
  std::unique_lock<std::mutex> lock(hb_mutex_);
  while (!hb_cv_.wait_for(lock, config_.hb_interval,
                          [this] { return hb_stop_; })) {
    lock.unlock();
    probe_workers();
    lock.lock();
  }
}

// ------------------------------------------------------------------ role

Json Coordinator::workers_reply() {
  util::JsonArray workers;
  for (const WorkerInfo& info : registry_.snapshot()) {
    Json w;
    w.set("endpoint", info.endpoint.label);
    w.set("node", info.node);
    w.set("state", to_string(info.state));
    w.set("missed", static_cast<std::uint64_t>(info.missed));
    w.set("rtt_ms", info.rtt_ms);
    w.set("running", info.running);
    w.set("queued", info.queued);
    w.set("stall_ms", info.stall_ms);
    w.set("heartbeats", info.heartbeats);
    w.set("failures", info.failures);
    w.set("dispatched", info.dispatched);
    workers.push_back(std::move(w));
  }
  Json json = server::ok_response();
  json.set("node", config_.node_id);
  json.set("workers", std::move(workers));
  return json;
}

std::optional<Json> Coordinator::admit(const JobSpec& /*spec*/) {
  if (registry_.live_count() != 0) return std::nullopt;
  return server::error_response(
      "no live workers (" + std::to_string(registry_.size()) +
          " registered); cannot dispatch",
      server::kErrorCodeNoWorkers);
}

void Coordinator::add_heartbeat_fields(Json& reply) {
  reply.set("workers_live",
            static_cast<std::uint64_t>(registry_.live_count()));
}

void Coordinator::add_metrics(Json& metrics) {
  // Per-worker liveness + last reported load, keyed by sanitized label so
  // the text render / watch deltas get stable scrapeable names.
  Json fleet;
  for (const WorkerInfo& info : registry_.snapshot()) {
    Json w;
    w.set("state", to_string(info.state));
    w.set("missed", static_cast<std::uint64_t>(info.missed));
    w.set("rtt_ms", info.rtt_ms);
    w.set("running", info.running);
    w.set("queued", info.queued);
    w.set("stall_ms", info.stall_ms);
    w.set("dispatched", info.dispatched);
    fleet.set(sanitize_label(info.endpoint.label), std::move(w));
  }
  metrics.set("fleet", std::move(fleet));
}

void Coordinator::run_job(const JobSpec& spec,
                          const JobScheduler::Handle& handle,
                          const server::JobServer::Emit& emit) {
  FleetDispatcher dispatcher(
      {.registry = &registry_,
       .metrics = &server_.metrics(),
       .coordinator_id = config_.node_id,
       .connect_timeout_ms = config_.connect_timeout_ms,
       .max_attempts = config_.max_attempts,
       .log = [this](const std::string& line) { server_.log_line(line); }});
  const FleetDispatcher::Result result = dispatcher.run(spec, handle, emit);
  server_.metrics().inc("designs_committed", result.records);
}

}  // namespace syn::fleet
