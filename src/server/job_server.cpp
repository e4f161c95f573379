#include "server/job_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "server/socket_io.hpp"

namespace syn::server {

using util::Json;

namespace {

/// Bytes of regular files under `dir`, recursively; 0 for a missing or
/// unreadable dir (an unreadable dir should not block submissions).
std::uintmax_t directory_bytes(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::recursive_directory_iterator it(dir, ec);
  if (ec) return 0;
  std::uintmax_t total = 0;
  const std::filesystem::recursive_directory_iterator end;
  while (it != end) {
    std::error_code entry_ec;
    if (it->is_regular_file(entry_ec) && !entry_ec) {
      const std::uintmax_t size = it->file_size(entry_ec);
      if (!entry_ec) total += size;
    }
    it.increment(ec);
    if (ec) break;
  }
  return total;
}

/// Does one event-log line pass a STREAM filter? Event lines are
/// util::Json dumps with insertion-ordered keys, so "event" is always the
/// first field — a prefix check classifies without parsing. The terminal
/// "end" event always passes (subscribers need it to stop following);
/// "summary" rides only with kAll.
bool stream_event_passes(const std::string& line, StreamFilter filter) {
  if (filter == StreamFilter::kAll) return true;
  const auto is_kind = [&](const char* kind) {
    return line.rfind(std::string("{\"event\":\"") + kind + "\"", 0) == 0;
  };
  if (is_kind("end")) return true;
  return filter == StreamFilter::kRecords ? is_kind("record")
                                          : is_kind("checkpoint");
}

}  // namespace

JobServer::JobServer(ServerConfig& config, Role& role)
    : config_(config), role_(role) {
  if (config_.socket_path.empty()) {
    throw std::invalid_argument(role_.server_name +
                                ": socket_path is required");
  }
  if (config_.node_id.empty()) {
    config_.node_id = role_.role_name + "-" + std::to_string(::getpid());
  }
  // Latency tracks re-bounded from the default geometry: dispatch waits
  // are short (10 ms resolution), job durations are long.
  registry_.declare_track("dispatch_ms", 0.0, 5'000.0, 500);
  registry_.declare_track("job_ms", 0.0, 300'000.0, 600);
  const auto locked_size = [this](const auto& container) {
    return [this, &container] {
      const std::lock_guard<std::mutex> lock(mutex_);
      return static_cast<std::int64_t>(container.size());
    };
  };
  registry_.register_gauge("connections", locked_size(connections_));
  registry_.register_gauge("event_logs", locked_size(logs_));
  registry_.register_gauge("tracked_specs", locked_size(specs_));
  registry_.register_gauge("expired_ring", locked_size(expired_order_));
  registry_.register_gauge("event_log_lines", [this] {
    std::vector<std::shared_ptr<EventLog>> logs;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& [id, log] : logs_) logs.push_back(log);
    }
    std::int64_t total = 0;
    for (const auto& log : logs) total += static_cast<std::int64_t>(log->size());
    return total;
  });
  registry_.register_gauge("terminal_retained", [this] {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t total = 0;
    for (const auto& [client, history] : terminal_history_) {
      total += static_cast<std::int64_t>(history.size());
    }
    return total;
  });

  JobScheduler::Options options;
  options.max_concurrent = config_.max_concurrent;
  options.quotas = config_.quotas;
  options.metrics = &registry_;
  // Terminal stream events are driven by the scheduler, not the job
  // body: the callback fires only after the terminal state is visible to
  // STATUS, so a client that reacts to the "end" event never reads a
  // stale "running". It also covers jobs cancelled while still queued,
  // whose bodies never run.
  options.on_terminal = [this](const JobScheduler::Info& info) {
    Json end;
    end.set("event", "end");
    end.set("id", info.id);
    end.set("state", to_string(info.state));
    if (!info.error.empty()) end.set("error", info.error);
    event_log(info.id)->close_with(end.dump());
    log_line(info.id + " " + to_string(info.state) +
             (info.error.empty() ? "" : ": " + info.error));
    // After the terminal event is published: record the job in the
    // retention history and evict whatever fell out of the window.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      terminal_history_[info.client].push_back(
          {info.id, std::chrono::steady_clock::now()});
    }
    gc_terminal_jobs();
  };
  scheduler_ = std::make_unique<JobScheduler>(options);
}

JobServer::~JobServer() {
  request_stop(false);
  teardown(false);
}

void JobServer::log_line(const std::string& line) {
  if (!config_.log) return;
  const std::lock_guard<std::mutex> lock(log_mutex_);
  *config_.log << "[" << role_.server_name << "] " << line << "\n";
}

void JobServer::start() {
  if (started_.exchange(true)) {
    throw std::logic_error(role_.server_name + ": start() called twice");
  }
  listen_fds_.push_back(io::listen_unix(config_.socket_path, 16));
  log_line("listening on " + config_.socket_path.generic_string());
  if (config_.tcp_port > 0) {
    listen_fds_.push_back(io::listen_tcp(config_.tcp_port, 16));
    log_line("listening on 127.0.0.1:" + std::to_string(config_.tcp_port));
  }
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
}

void JobServer::request_stop(bool drain) {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    if (!stop_requested_) {
      stop_requested_ = true;
      stop_drain_ = drain;
    }
  }
  stop_cv_.notify_all();
}

void JobServer::serve() {
  bool drain = true;
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [&] { return stop_requested_; });
    drain = stop_drain_;
  }
  teardown(drain);
}

void JobServer::teardown(bool drain) {
  const std::lock_guard<std::mutex> once(teardown_mutex_);
  if (torn_down_ || !started_.load()) return;
  torn_down_ = true;
  // A start() that threw before binding owns no socket file; unlinking
  // the path then would disconnect a LIVE server this one lost the bind
  // race to.
  const bool owns_socket = !listen_fds_.empty();

  log_line(drain ? "shutting down (draining jobs)"
                 : "shutting down (cancelling jobs)");
  role_.before_teardown();
  // Stop intake + settle every job. After this, all jobs are terminal and
  // every event log is closed (the scheduler's on_terminal hook fires for
  // completed and cancelled-while-queued jobs alike), so no STREAM
  // subscriber is left waiting.
  scheduler_->shutdown(drain);

  // Wake the acceptors and join them.
  for (const int fd : listen_fds_) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  listen_fds_.clear();

  // Every log is closed now, so STREAM replies run to their "end" event
  // on their own. Let them: a subscriber of a cancelled job must still get
  // every record the job committed (a fleet coordinator resumes the range
  // from that checkpoint). A peer that stops reading is cut after
  // kStreamFlushTimeout. Then kick every live connection; handlers see EOF
  // / failed writes and exit on their own, closing their fds. No acceptor
  // is left to add handlers.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    streams_idle_.wait_for(lock, kStreamFlushTimeout,
                           [this] { return streaming_ == 0; });
    for (const auto& [id, fd] : connections_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& [id, handler] : handlers_) handler.join();
  handlers_.clear();
  exited_.clear();

  if (owns_socket) {
    std::error_code ignored;
    std::filesystem::remove(config_.socket_path, ignored);
  }
  log_line("stopped");
}

// ------------------------------------------------------------ connections

void JobServer::accept_loop(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener closed during teardown
    }
    // Join the handlers that have returned since the last accept, so a
    // long-lived server holds threads (and their stacks) only for live
    // connections. They are past their last touch of *this, so these
    // joins never wait on a peer.
    std::vector<std::thread> finished;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const std::size_t id : exited_) {
        const auto it = handlers_.find(id);
        finished.push_back(std::move(it->second));
        handlers_.erase(it);
      }
      exited_.clear();
      const std::size_t id = next_connection_++;
      connections_.emplace(id, fd);
      handlers_.emplace(id, std::thread([this, fd, id] {
                          handle_connection(fd, id);
                        }));
    }
    for (std::thread& t : finished) t.join();
  }
}

void JobServer::handle_connection(int fd, std::size_t connection_id) {
  const std::string conn_client = "conn-" + std::to_string(connection_id);
  log_line(conn_client + " connected");
  std::string carry;
  try {
    while (auto line = io::read_line(fd, carry, kMaxRequestBytes)) {
      if (line->empty()) continue;
      bool keep_going = true;
      try {
        keep_going = handle_request(parse_request(*line), conn_client, fd);
      } catch (const ProtocolError& e) {
        keep_going =
            io::write_all(fd, error_response(e.what()).dump() + "\n");
      }
      if (!keep_going) break;
    }
  } catch (const io::LineTooLong& e) {
    // The rest of the stream cannot be framed: answer once, hang up.
    (void)io::write_all(
        fd, error_response(std::string("request ") + e.what()).dump() + "\n");
  }
  log_line(conn_client + " disconnected");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    connections_.erase(connection_id);  // teardown no longer kicks fd
    exited_.push_back(connection_id);   // the next accept joins us
  }
  ::close(fd);  // past here nothing touches *this
}

// --------------------------------------------------------------- requests

bool JobServer::handle_request(const Request& request,
                               const std::string& conn_client, int fd) {
  const auto respond = [&](const Json& json) {
    return io::write_all(fd, json.dump() + "\n");
  };
  registry_.inc("requests");

  switch (request.cmd) {
    case Request::Cmd::kPing: {
      Json json = ok_response();
      json.set("server", role_.server_name);
      return respond(json);
    }

    case Request::Cmd::kHello: {
      // Fleet membership handshake: a coordinator introduces itself (its
      // node id rides in request.node) and learns who answers.
      if (!request.node.empty()) {
        log_line("hello from " + request.node + " (" + conn_client + ")");
      }
      Json json = ok_response();
      json.set("server", role_.server_name);
      json.set("role", role_.role_name);
      json.set("node", config_.node_id);
      json.set("pid", static_cast<std::int64_t>(::getpid()));
      return respond(json);
    }

    case Request::Cmd::kHeartbeat: {
      // Liveness probe, answered from counters only — never blocked
      // behind a running job, so a busy server still beats.
      const JobScheduler::Counts counts = scheduler_->counts();
      Json json = ok_response();
      json.set("node", config_.node_id);
      json.set("running", counts.running);
      json.set("queued", counts.queued);
      role_.add_heartbeat_fields(json);
      return respond(json);
    }

    case Request::Cmd::kWorkers:
      return respond(role_.workers_reply());

    case Request::Cmd::kSubmit:
      return respond(submit(request, conn_client));

    case Request::Cmd::kStatus: {
      try {
        Json json = ok_response();
        json.set("job", job_json(scheduler_->info(request.id)));
        return respond(json);
      } catch (const std::out_of_range&) {
        return respond(job_gone_response(request.id));
      }
    }

    case Request::Cmd::kList: {
      Json json = ok_response();
      util::JsonArray jobs;
      for (const auto& info : scheduler_->list()) {
        jobs.push_back(job_json(info));
      }
      json.set("jobs", std::move(jobs));
      return respond(json);
    }

    case Request::Cmd::kCancel: {
      const bool changed = scheduler_->cancel(request.id);
      JobScheduler::Info info;
      try {
        info = scheduler_->info(request.id);
      } catch (const std::out_of_range&) {
        return respond(job_gone_response(request.id));
      }
      log_line(request.id + " cancel requested (now " +
               to_string(info.state) + ")");
      Json json = ok_response();
      json.set("id", request.id);
      json.set("changed", changed);
      json.set("state", to_string(info.state));
      return respond(json);
    }

    case Request::Cmd::kStream: {
      try {
        (void)scheduler_->info(request.id);
      } catch (const std::out_of_range&) {
        return respond(job_gone_response(request.id));
      }
      // GC may evict the job between the info() above and here.
      const std::shared_ptr<EventLog> log = event_log(request.id);
      if (!log) return respond(job_gone_response(request.id));
      Json ack = ok_response();
      ack.set("id", request.id);
      ack.set("streaming", true);
      ack.set("filter", to_string(request.filter));
      if (!respond(ack)) return false;
      // Replay the retained window, then follow the live tail until the
      // job's terminal "end" event closes the log.
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++streaming_;
      }
      bool delivered = true;
      std::size_t seq = 0;
      while (const auto line = log->wait_from(seq)) {
        seq = line->first + 1;
        if (!stream_event_passes(line->second, request.filter)) continue;
        delivered = io::write_all(fd, line->second + "\n");
        if (!delivered) break;
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        --streaming_;
      }
      streams_idle_.notify_all();
      return delivered;  // a delivered stream leaves the connection usable
    }

    case Request::Cmd::kMetrics: {
      // TTL-based eviction piggybacks on metrics polls, so an idle server
      // with a gc_ttl still sheds old terminal jobs while being scraped.
      gc_terminal_jobs();
      Json json = ok_response();
      json.set("metrics", metrics_json());
      return respond(json);
    }

    case Request::Cmd::kShutdown: {
      respond(ok_response());  // ack first; the connection closes next
      log_line("shutdown requested (drain=" +
               std::string(request.drain ? "true" : "false") + ")");
      request_stop(request.drain);
      return false;
    }
  }
  return respond(error_response("unhandled command"));
}

Json JobServer::submit(const Request& request,
                       const std::string& conn_client) {
  const std::string client =
      request.client.empty() ? conn_client : request.client;
  const JobSpec& spec = request.spec;
  // Spec size and disk budget first, then the role's own check; queue
  // quotas are enforced atomically inside the scheduler.
  std::optional<Json> rejection;
  if (config_.max_designs_per_job > 0 &&
      spec.count > config_.max_designs_per_job) {
    rejection = error_response(
        "spec.count " + std::to_string(spec.count) +
            " exceeds the per-job design limit (" +
            std::to_string(config_.max_designs_per_job) + ")",
        kErrorCodeQuota);
  } else if (config_.max_out_bytes > 0) {
    const std::uintmax_t used = directory_bytes(spec.out);
    if (used >= config_.max_out_bytes) {
      rejection = error_response(
          "output dir " + spec.out.generic_string() + " already holds " +
              std::to_string(used) + " bytes (budget " +
              std::to_string(config_.max_out_bytes) + ")",
          kErrorCodeQuota);
    }
  }
  if (!rejection) rejection = role_.admit(spec);
  if (rejection) {
    registry_.inc("submit_rejected");
    return *rejection;
  }
  std::string id;
  try {
    id = scheduler_->submit(client, [this, spec](
                                        const JobScheduler::Handle& handle) {
      run_job(spec, handle);
    });
  } catch (const QuotaError& e) {
    registry_.inc("submit_rejected");
    return error_response(e.what(), kErrorCodeQuota);
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
  registry_.inc("submit_accepted");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // A fast job may already be terminal and evicted; its spec must not
    // outlive it.
    if (expired_.count(id) == 0) specs_.emplace(id, spec);
  }
  log_line(id + " submitted by " + client + " (" + spec.backend + ", " +
           std::to_string(spec.count) + " designs -> " +
           spec.out.generic_string() + ")");
  Json json = ok_response();
  json.set("id", id);
  json.set("state", "queued");
  return json;
}

void JobServer::run_job(const JobSpec& spec,
                        const JobScheduler::Handle& handle) {
  // A running job is not terminal, so GC cannot have evicted it.
  const std::shared_ptr<EventLog> log = event_log(handle.id());
  role_.run_job(spec, handle, [this, log](std::string line) {
    registry_.inc("stream_events");
    if (line.rfind("{\"event\":\"record\"", 0) == 0) {
      registry_.inc(role_.record_counter);
    }
    log->append(std::move(line));
  });
}

Json JobServer::job_json(const JobScheduler::Info& info) const {
  Json json;
  json.set("id", info.id);
  json.set("client", info.client);
  json.set("state", to_string(info.state));
  if (!info.error.empty()) json.set("error", info.error);
  json.set("produced", info.progress.produced);
  json.set("written", info.progress.written);
  json.set("groups", info.progress.groups);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = specs_.find(info.id);
  if (it != specs_.end()) {
    json.set("count", it->second.count);
    json.set("seed", it->second.seed);
    if (it->second.start != 0) json.set("start", it->second.start);
    json.set("backend", it->second.backend);
    json.set("out", it->second.out.generic_string());
  }
  return json;
}

Json JobServer::metrics_json() {
  // Read before the snapshot pulls the tracked_specs/event_logs gauges:
  // gc_terminal_jobs erases an evicted job's spec and log before it counts
  // it, and the registry lock orders that count before this read, so the
  // gauges pulled next already show every job counted here as gone.
  const std::uint64_t expired = registry_.counter("jobs_expired");
  // snapshot() pulls the registered gauges, which take mutex_ — so this
  // must run with no server lock held (the registry never holds its own
  // lock across the calls either; it is a strict leaf).
  Json metrics = registry_.snapshot();

  const JobScheduler::Counts counts = scheduler_->counts();
  Json jobs;
  jobs.set("submitted", counts.submitted);
  jobs.set("rejected", counts.rejected);
  jobs.set("queued", counts.queued);
  jobs.set("running", counts.running);
  jobs.set("done", counts.done);
  jobs.set("failed", counts.failed);
  jobs.set("cancelled", counts.cancelled);
  jobs.set("expired", expired);
  jobs.set("tracked",
           static_cast<std::uint64_t>(scheduler_->tracked_jobs()));
  metrics.set("jobs", std::move(jobs));

  Json clients;
  for (const auto& [client, load] : scheduler_->client_loads()) {
    Json entry;
    entry.set("queued", static_cast<std::uint64_t>(load.queued));
    entry.set("active", static_cast<std::uint64_t>(load.active));
    clients.set(client, std::move(entry));
  }
  metrics.set("clients", std::move(clients));
  role_.add_metrics(metrics);
  return metrics;
}

// ----------------------------------------------------- event logs and GC

std::shared_ptr<EventLog> JobServer::event_log(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (expired_.count(id) != 0) return nullptr;
  std::shared_ptr<EventLog>& slot = logs_[id];
  if (!slot) slot = std::make_shared<EventLog>();
  return slot;
}

Json JobServer::job_gone_response(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (expired_.count(id) != 0) {
    return error_response("job \"" + id + "\" expired (evicted by GC)",
                          kErrorCodeExpired);
  }
  return error_response("unknown job \"" + id + "\"", kErrorCodeUnknownJob);
}

void JobServer::gc_terminal_jobs() {
  const auto now = std::chrono::steady_clock::now();
  const auto past_ttl = [&](const TerminalRecord& rec) {
    return config_.gc_ttl.count() > 0 && now - rec.at >= config_.gc_ttl;
  };
  std::vector<std::string> evicted;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = terminal_history_.begin();
         it != terminal_history_.end();) {
      std::deque<TerminalRecord>& history = it->second;
      while (!history.empty() && (history.size() > config_.gc_retain ||
                                  past_ttl(history.front()))) {
        evicted.push_back(std::move(history.front().id));
        history.pop_front();
      }
      it = history.empty() ? terminal_history_.erase(it) : std::next(it);
    }
    // Mark expired BEFORE the scheduler forgets the id (below, unlocked):
    // a racing STATUS sees either valid scheduler info (with the spec
    // fields merely omitted) or the typed "expired" answer — never a
    // bare "unknown job" for an id that did exist.
    for (const std::string& id : evicted) {
      specs_.erase(id);
      logs_.erase(id);  // already closed: the job was terminal
      if (expired_.insert(id).second) expired_order_.push_back(id);
    }
    while (expired_order_.size() > kExpiredRetention) {
      expired_.erase(expired_order_.front());
      expired_order_.pop_front();
    }
  }
  for (const std::string& id : evicted) scheduler_->erase_terminal(id);
  if (!evicted.empty()) {
    registry_.inc("jobs_expired", evicted.size());
    log_line("gc evicted " + std::to_string(evicted.size()) +
             " terminal job(s)");
  }
}

}  // namespace syn::server
