// JobServer: the socket server core shared by the worker daemon
// (server::Daemon) and the fleet coordinator (fleet::Coordinator).
//
//   listeners (unix socket, optional loopback TCP)
//        │ one thread per connection, joined by the acceptor once it
//        │ exits; newline-delimited JSON, at most kMaxRequestBytes a line
//        ▼
//   verb dispatch ── SUBMIT admission: designs per job, disk budget,
//        │           then Role::admit; queue quotas in the scheduler
//        ▼
//   JobScheduler (fair share across clients, N concurrent, cancel/drain)
//        │ job body on a pool thread
//        ▼
//   Role::run_job ── emit ──► per-job EventLog ──► STREAM subscribers
//
// The scheduler's terminal callback appends a job's "end" event, then
// terminal-job GC applies per-client retention (gc_retain, gc_ttl): an
// evicted job loses its scheduler entry, spec and event log together and
// moves to a bounded expired ring, so STATUS/STREAM/CANCEL answer the
// typed "expired". A Role supplies only what differs between the two
// servers: the job body, identity, extra HEARTBEAT fields, the WORKERS
// answer, its own admission check, METRICS sections and threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/event_log.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"
#include "util/json.hpp"

namespace syn::server {

struct ServerConfig {
  /// Unix-domain socket to listen on (required; created at start(),
  /// unlinked at teardown).
  std::filesystem::path socket_path;
  /// Also listen on 127.0.0.1:tcp_port (0 = unix socket only).
  int tcp_port = 0;
  /// Identity reported to HELLO/HEARTBEAT (fleet membership is keyed on
  /// it); empty = "<role>-<pid>".
  std::string node_id;
  /// Jobs running concurrently.
  std::size_t max_concurrent = 1;
  /// Log stream (connections, job lifecycle); null = quiet.
  std::ostream* log = nullptr;

  // ---- Admission control (all 0 = unlimited) -------------------------
  /// Per-client / global queue quotas, enforced inside the scheduler.
  JobScheduler::Quotas quotas;
  /// Max designs one SUBMIT may request.
  std::size_t max_designs_per_job = 0;
  /// Disk budget per output dir: a SUBMIT whose spec.out already holds
  /// at least this many bytes is rejected (coarse, checked once at
  /// admission — a resident server's main disk hazard is a client
  /// resubmitting into a dir that keeps growing).
  std::uintmax_t max_out_bytes = 0;

  // ---- Terminal-job GC ----------------------------------------------
  /// Terminal jobs retained per client; beyond this the oldest are
  /// evicted (scheduler entry, spec, and event log together) and STATUS
  /// answers "expired". 0 = evict immediately at terminal.
  std::size_t gc_retain = 64;
  /// Terminal jobs older than this are evicted even within the
  /// per-client retention window (0 = no TTL). Swept on every terminal
  /// event and every METRICS request.
  std::chrono::milliseconds gc_ttl{0};
};

class JobServer {
 public:
  /// Request lines longer than this get one error reply, then the
  /// connection closes: the peer is not speaking the protocol.
  static constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;
  /// How long teardown lets STREAM replies write out the logs of the jobs
  /// it has just settled before it closes their connections.
  static constexpr std::chrono::seconds kStreamFlushTimeout{5};

  /// Appends one event line to the running job's stream log.
  using Emit = std::function<void(std::string line)>;

  /// What one kind of server does differently. The hooks run on
  /// connection, pool and teardown threads, with no lock on the server's
  /// connections, logs or job records held.
  class Role {
   public:
    /// `server` answers PING/HELLO and prefixes log lines; `role`
    /// answers HELLO and prefixes the default node id; `record_counter`
    /// counts the "record" events a job emits.
    Role(std::string server, std::string role, std::string record_counter)
        : server_name(std::move(server)),
          role_name(std::move(role)),
          record_counter(std::move(record_counter)) {}
    virtual ~Role() = default;

    /// The job body, on a scheduler pool thread. Returning = done;
    /// throwing service::CancelledError = cancelled; anything else =
    /// failed. The terminal "end" event is the server's, not the body's.
    virtual void run_job(const JobSpec& spec,
                         const JobScheduler::Handle& handle,
                         const Emit& emit) = 0;
    /// The whole WORKERS reply.
    virtual util::Json workers_reply() = 0;
    /// A role-specific SUBMIT rejection, checked after the size and disk
    /// quotas; nullopt admits the job.
    virtual std::optional<util::Json> admit(const JobSpec& /*spec*/) {
      return std::nullopt;
    }
    virtual void add_heartbeat_fields(util::Json& /*reply*/) {}
    /// Adds sections to a METRICS snapshot after "jobs" and "clients".
    virtual void add_metrics(util::Json& /*metrics*/) {}
    /// First step of teardown, before the scheduler settles its jobs:
    /// stop the role's own threads here.
    virtual void before_teardown() {}

    const std::string server_name;
    const std::string role_name;
    const std::string record_counter;
  };

  /// `config` and `role` must outlive the server; an empty
  /// config.node_id is filled in here. Throws std::invalid_argument
  /// without a socket path.
  JobServer(ServerConfig& config, Role& role);
  /// request_stop(false) + teardown.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Binds the listeners and starts accepting. Throws on bind failure
  /// (socket path in use by a live server, TCP port taken, ...).
  void start();
  /// Blocks until a protocol SHUTDOWN (or request_stop) arrives, then
  /// tears down: the role's threads, then intake and jobs (drained or
  /// cancelled), then the listeners, then — once STREAM replies have
  /// written out their jobs' "end" events — every connection.
  void serve();
  /// Asynchronous stop trigger (signal handlers, tests). drain=true
  /// finishes queued + running jobs first; the first request's mode wins.
  void request_stop(bool drain);

  void log_line(const std::string& line);

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] JobScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] MetricsRegistry& metrics() { return registry_; }

 private:
  void accept_loop(int listen_fd);
  void handle_connection(int fd, std::size_t connection_id);
  /// One request -> one response (STREAM additionally writes event lines
  /// before returning). False when the connection should close.
  bool handle_request(const Request& request, const std::string& conn_client,
                      int fd);
  [[nodiscard]] util::Json submit(const Request& request,
                                  const std::string& conn_client);
  void run_job(const JobSpec& spec, const JobScheduler::Handle& handle);

  /// Get-or-create, unless the job has been GC-evicted (then nullptr —
  /// a fresh, never-closed log for an expired job would leave its
  /// subscriber blocked forever).
  std::shared_ptr<EventLog> event_log(const std::string& id);
  [[nodiscard]] util::Json job_json(const JobScheduler::Info& info) const;
  /// "expired" vs "unknown job" for an id the scheduler no longer knows.
  [[nodiscard]] util::Json job_gone_response(const std::string& id) const;
  [[nodiscard]] util::Json metrics_json();
  /// Applies the per-client retention count + TTL, evicting scheduler
  /// entry, spec and event log together into the expired ring.
  void gc_terminal_jobs();
  /// One-shot teardown executed by serve() (or the destructor if serve
  /// never ran). Joins every thread; idempotent.
  void teardown(bool drain);

  ServerConfig& config_;
  Role& role_;

  std::vector<int> listen_fds_;
  std::vector<std::thread> accept_threads_;

  mutable std::mutex mutex_;  // everything below up to registry_
  /// Live connections' fds, for teardown to kick.
  std::map<std::size_t, int> connections_;
  /// Every handler thread not yet joined; exited_ names the ones that
  /// have returned, which the next accept (or teardown) joins.
  std::map<std::size_t, std::thread> handlers_;
  std::vector<std::size_t> exited_;
  std::size_t next_connection_ = 0;
  /// Handlers inside a STREAM reply; teardown waits for them to reach 0.
  std::size_t streaming_ = 0;
  std::condition_variable streams_idle_;
  std::map<std::string, std::shared_ptr<EventLog>> logs_;
  std::map<std::string, JobSpec> specs_;

  struct TerminalRecord {
    std::string id;
    std::chrono::steady_clock::time_point at;
  };
  /// Terminal jobs per client, oldest first; trimmed by gc_retain/gc_ttl.
  std::map<std::string, std::deque<TerminalRecord>> terminal_history_;
  /// Ids evicted by GC, so STATUS/STREAM/CANCEL answer "expired" instead
  /// of "unknown job". Itself a bounded ring (kExpiredRetention) — after
  /// enough churn the very oldest evictions degrade to "unknown job",
  /// which is still a correct (if less precise) answer.
  static constexpr std::size_t kExpiredRetention = 4096;
  std::set<std::string> expired_;
  std::deque<std::string> expired_order_;

  /// Declared before scheduler_: the scheduler (and job bodies it joins
  /// at destruction) observe latencies into this registry, so it must be
  /// destroyed after them.
  MetricsRegistry registry_;

  std::mutex log_mutex_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stop_drain_ = true;
  std::mutex teardown_mutex_;
  bool torn_down_ = false;
  std::atomic<bool> started_{false};

  /// Declared LAST on purpose: its destructor joins the job pool, and a
  /// job's terminal callback may touch any member above — destroying the
  /// scheduler first makes that safe.
  std::unique_ptr<JobScheduler> scheduler_;
};

}  // namespace syn::server
