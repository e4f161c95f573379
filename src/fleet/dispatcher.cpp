#include "fleet/dispatcher.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "server/metrics.hpp"
#include "service/dataset_merge.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "util/json.hpp"

namespace syn::fleet {

using server::ClientConnection;
using server::JobScheduler;
using server::JobSpec;
using util::Json;

server::ClientConnection connect_worker(const WorkerEndpoint& ep,
                                        int timeout_ms) {
  if (ep.kind == WorkerEndpoint::Kind::kTcp) {
    return ClientConnection::connect_tcp(ep.host, ep.port, timeout_ms);
  }
  return ClientConnection::connect_unix(ep.socket, timeout_ms);
}

FleetDispatcher::FleetDispatcher(FleetDispatcherConfig config)
    : config_(std::move(config)) {
  if (config_.registry == nullptr) {
    throw std::invalid_argument("FleetDispatcher: registry is not set");
  }
  if (config_.max_attempts == 0) config_.max_attempts = 1;
}

std::vector<std::pair<std::size_t, std::size_t>> FleetDispatcher::split_ranges(
    std::size_t start, std::size_t count, std::size_t shards) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  if (count <= start) return ranges;
  const std::size_t total = count - start;
  shards = std::clamp<std::size_t>(shards, 1, total);
  const std::size_t base = total / shards;
  const std::size_t extra = total % shards;
  std::size_t lo = start;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::size_t hi = lo + base + (i < extra ? 1 : 0);
    ranges.emplace_back(lo, hi);
    lo = hi;
  }
  return ranges;
}

namespace {

struct SubJob {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::filesystem::path part;
  enum class State { kPending, kRunning, kDone };
  State state = State::kPending;
  std::size_t attempts = 0;
  std::chrono::steady_clock::time_point not_before{};
  std::string worker;     ///< endpoint label while kRunning
  std::string remote_id;  ///< worker-side job id while kRunning
  std::shared_ptr<ClientConnection> conn;
  std::string last_error;
};

/// Shared with the STATUS progress provider, which outlives run() only
/// through this shared_ptr.
struct Progress {
  std::atomic<std::size_t> records{0};
  std::atomic<std::size_t> checkpoints{0};
};

/// The "generator" of an existing dataset's manifest.json, for the
/// already-complete shortcut's summary event. Empty on any trouble.
std::string dataset_generator(const std::filesystem::path& dir) {
  std::ifstream in(dir / "manifest.json");
  if (!in) return {};
  std::stringstream text;
  text << in.rdbuf();
  try {
    const Json summary = Json::parse(text.str());
    if (const Json* generator = summary.find("generator")) {
      return generator->str();
    }
  } catch (const util::JsonError&) {
  }
  return {};
}

std::string summary_event(const std::string& id, const std::string& generator,
                          const JobSpec& spec) {
  Json event;
  event.set("event", "summary");
  event.set("id", id);
  event.set("generator", generator);
  event.set("seed", spec.seed);
  event.set("count", spec.count);
  return event.dump();
}

}  // namespace

FleetDispatcher::Result FleetDispatcher::run(
    const JobSpec& spec, const JobScheduler::Handle& handle,
    const EmitFn& emit) {
  const std::string& id = handle.id();
  const auto log = [this, &id](const std::string& line) {
    if (config_.log) config_.log("job " + id + ": " + line);
  };
  const auto parts_root = spec.out / ".parts";

  // Already-complete dataset: nothing to dispatch (mirrors a worker's
  // resume_index() == count fast path).
  if (!spec.fresh && !std::filesystem::exists(parts_root) &&
      service::read_dataset_checkpoint(spec.out, spec.seed,
                                       spec.shard_size) >= spec.count) {
    log("dataset already complete, nothing to dispatch");
    std::string generator = dataset_generator(spec.out);
    if (generator.empty()) generator = spec.backend;
    emit(summary_event(id, generator, spec));
    Result result;
    result.generator = generator;
    return result;
  }
  if (spec.fresh) {
    // Parts of an older run would fail merge validation against the new
    // ranges; fresh discards them wholesale (workers then regenerate).
    std::error_code ignored;
    std::filesystem::remove_all(parts_root, ignored);
  }

  const auto ranges =
      split_ranges(spec.start, spec.count,
                   std::max<std::size_t>(config_.registry->live_count(), 1));

  // ---- Shared control state --------------------------------------------
  std::mutex mutex;
  std::condition_variable changed;
  std::vector<SubJob> subjobs(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    subjobs[i].lo = ranges[i].first;
    subjobs[i].hi = ranges[i].second;
    subjobs[i].part = parts_root / ("r" + std::to_string(subjobs[i].lo) +
                                    "_" + std::to_string(subjobs[i].hi));
  }
  bool cancelling = false;
  bool failed = false;
  std::string fail_error;
  std::size_t redispatches = 0;
  std::string generator;
  auto progress = std::make_shared<Progress>();
  std::vector<std::thread> monitors;

  handle.set_progress([progress] {
    server::JobProgress p;
    p.produced = progress->records.load(std::memory_order_relaxed);
    p.written = p.produced;
    p.groups = progress->checkpoints.load(std::memory_order_relaxed);
    return p;
  });

  // Best-effort remote cancel, bounded by the connect timeout (a dead
  // worker fails fast; a live-but-cut-off worker must release the part
  // dir's lock before a retry on another worker can take it).
  const auto cancel_remote = [this, &log](const WorkerEndpoint& ep,
                                          const std::string& remote_id) {
    if (remote_id.empty()) return;
    try {
      auto conn = connect_worker(ep, std::max(config_.connect_timeout_ms, 1));
      conn.set_recv_timeout(std::max(config_.connect_timeout_ms, 1));
      conn.cancel(remote_id);
      log("cancelled worker job " + remote_id + " on " + ep.label);
    } catch (const std::exception&) {
    }
  };

  const auto monitor = [&, this](std::size_t index, WorkerEndpoint ep) {
    SubJob& sj = subjobs[index];
    const auto started = std::chrono::steady_clock::now();
    std::string error;
    std::string remote_id;
    bool done = false;
    try {
      auto conn = std::make_shared<ClientConnection>(
          connect_worker(ep, config_.connect_timeout_ms));
      conn->set_recv_timeout(config_.connect_timeout_ms);
      JobSpec sub = spec;
      sub.out = sj.part;
      sub.start = sj.lo;
      sub.count = sj.hi;
      // Never fresh: a re-dispatch must RESUME the part's checkpoint, and
      // first dispatches already see a clean dir (fresh wiped .parts).
      sub.fresh = false;
      remote_id = conn->submit(sub, config_.coordinator_id);
      {
        const std::lock_guard<std::mutex> lock(mutex);
        sj.conn = conn;
        sj.remote_id = remote_id;
      }
      // Streams go silent for as long as a group takes to generate; only
      // abort() (cancel, eviction) bounds them.
      conn->set_recv_timeout(0);
      std::string end_error;
      const std::string end_state =
          conn->stream(remote_id, [&](const Json& event) {
            const Json* kind = event.find("event");
            if (kind == nullptr || !kind->is_string()) return;
            if (kind->str() == "record" || kind->str() == "checkpoint") {
              Json forwarded = event;
              forwarded.set("id", id);
              emit(forwarded.dump());
              if (kind->str() == "record") {
                progress->records.fetch_add(1, std::memory_order_relaxed);
              } else {
                progress->checkpoints.fetch_add(1, std::memory_order_relaxed);
              }
            } else if (kind->str() == "summary") {
              const std::lock_guard<std::mutex> lock(mutex);
              if (const Json* name = event.find("generator")) {
                if (name->is_string()) generator = name->str();
              }
            } else if (kind->str() == "end") {
              if (const Json* message = event.find("error")) {
                if (message->is_string()) end_error = message->str();
              }
            }
          });
      done = end_state == "done";
      if (!done) {
        error = "worker job ended " + end_state +
                (end_error.empty() ? "" : ": " + end_error);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }

    bool note_failure = false;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      sj.conn.reset();
      sj.remote_id.clear();
      sj.worker.clear();
      if (done) {
        sj.state = SubJob::State::kDone;
        if (config_.metrics != nullptr) {
          config_.metrics->observe(
              "fleet_subjob_ms",
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - started)
                  .count());
        }
      } else {
        sj.state = SubJob::State::kPending;
        sj.last_error = "[" + ep.label + "] " + error;
        if (!cancelling) {
          note_failure = true;
          // Attempt k waits k * kRetryDelay. Covers the window where a
          // merely-suspected worker still holds a part dir's lock until
          // the best-effort remote cancel lands.
          constexpr std::chrono::milliseconds kRetryDelay{200};
          sj.not_before =
              std::chrono::steady_clock::now() + sj.attempts * kRetryDelay;
          if (sj.attempts >= config_.max_attempts) {
            failed = true;
            fail_error = "range [" + std::to_string(sj.lo) + ", " +
                         std::to_string(sj.hi) + ") failed after " +
                         std::to_string(sj.attempts) +
                         " attempts; last error " + sj.last_error;
          } else {
            ++redispatches;
            if (config_.metrics != nullptr) {
              config_.metrics->inc("fleet_redispatches");
            }
          }
        }
      }
    }
    if (note_failure) {
      config_.registry->note_failure(ep.label);
      log("range [" + std::to_string(sj.lo) + ", " + std::to_string(sj.hi) +
          ") on " + ep.label + " failed: " + error);
      // The worker may still be alive and holding the part lock (e.g. a
      // cut stream): tell it to stop before the range lands elsewhere.
      cancel_remote(ep, remote_id);
    }
    changed.notify_all();
  };

  const auto join_all = [&monitors] {
    for (std::thread& t : monitors) {
      if (t.joinable()) t.join();
    }
  };

  // Cancel remote sub-jobs + cut their streams; monitors then unwind.
  const auto stop_all = [&] {
    std::vector<std::tuple<WorkerEndpoint, std::string,
                           std::shared_ptr<ClientConnection>>> running;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      for (SubJob& sj : subjobs) {
        if (sj.state != SubJob::State::kRunning) continue;
        WorkerEndpoint ep;
        for (const WorkerInfo& info : config_.registry->snapshot()) {
          if (info.endpoint.label == sj.worker) ep = info.endpoint;
        }
        running.emplace_back(ep, sj.remote_id, sj.conn);
      }
    }
    for (auto& [ep, remote_id, conn] : running) {
      if (!ep.label.empty()) cancel_remote(ep, remote_id);
      if (conn) conn->abort();
    }
    join_all();
  };

  try {
    std::unique_lock<std::mutex> lock(mutex);
    bool starving = false;
    std::chrono::steady_clock::time_point starved_since{};
    while (true) {
      if (handle.cancelled()) {
        cancelling = true;
        lock.unlock();
        log("cancelling " + std::to_string(subjobs.size()) + " ranges");
        stop_all();
        throw service::CancelledError();
      }
      if (failed) {
        cancelling = true;  // quiet the surviving monitors
        const std::string error = fail_error;
        lock.unlock();
        stop_all();
        throw std::runtime_error(error);
      }

      std::size_t pending = 0;
      std::size_t active = 0;
      for (const SubJob& sj : subjobs) {
        if (sj.state == SubJob::State::kPending) ++pending;
        if (sj.state == SubJob::State::kRunning) ++active;
      }
      if (pending == 0 && active == 0) break;  // all done

      // A worker the heartbeat loop has evicted will never finish its
      // stream; cut the connection so the monitor fails over now.
      const std::vector<WorkerInfo> fleet = config_.registry->snapshot();
      for (SubJob& sj : subjobs) {
        if (sj.state != SubJob::State::kRunning || !sj.conn) continue;
        for (const WorkerInfo& info : fleet) {
          if (info.endpoint.label == sj.worker &&
              info.state == WorkerState::kDead) {
            log("worker " + sj.worker + " evicted; aborting range [" +
                std::to_string(sj.lo) + ", " + std::to_string(sj.hi) + ")");
            sj.conn->abort();
          }
        }
      }

      // Dispatch pending ranges to the least-loaded live worker.
      std::vector<WorkerEndpoint> live;
      for (const WorkerInfo& info : fleet) {
        if (info.state == WorkerState::kLive) live.push_back(info.endpoint);
      }
      const auto now = std::chrono::steady_clock::now();
      if (!live.empty()) {
        starving = false;
        for (std::size_t i = 0; i < subjobs.size(); ++i) {
          SubJob& sj = subjobs[i];
          if (sj.state != SubJob::State::kPending || sj.not_before > now) {
            continue;
          }
          const WorkerEndpoint* best = nullptr;
          std::size_t best_load = 0;
          for (const WorkerEndpoint& ep : live) {
            std::size_t load = 0;
            for (const SubJob& other : subjobs) {
              if (other.state == SubJob::State::kRunning &&
                  other.worker == ep.label) {
                ++load;
              }
            }
            if (best == nullptr || load < best_load) {
              best = &ep;
              best_load = load;
            }
          }
          sj.state = SubJob::State::kRunning;
          sj.worker = best->label;
          ++sj.attempts;
          config_.registry->note_dispatch(best->label);
          if (config_.metrics != nullptr) config_.metrics->inc("fleet_subjobs");
          log("range [" + std::to_string(sj.lo) + ", " +
              std::to_string(sj.hi) + ") -> " + best->label + " (attempt " +
              std::to_string(sj.attempts) + ")");
          monitors.emplace_back(monitor, i, *best);
        }
      } else if (active == 0) {
        // Nothing running and nobody to dispatch to. Give the heartbeat
        // loop a grace window to revive a suspect before giving up: one
        // heartbeat blip should not kill a fleet job.
        constexpr std::chrono::milliseconds kNoLiveGrace{5000};
        if (!starving) {
          starving = true;
          starved_since = now;
        }
        if (now - starved_since >= kNoLiveGrace) {
          std::string last;
          for (const SubJob& sj : subjobs) {
            if (!sj.last_error.empty()) last = sj.last_error;
          }
          throw std::runtime_error(
              "no live workers" + (last.empty() ? "" : "; last error " + last));
        }
      }

      // Control-loop tick: cancel polling, eviction aborts, dispatch.
      constexpr std::chrono::milliseconds kPollInterval{50};
      changed.wait_for(lock, kPollInterval);
    }
    lock.unlock();
    join_all();
  } catch (...) {
    join_all();
    throw;
  }

  // ---- Merge ----------------------------------------------------------
  std::vector<service::DatasetPart> parts;
  parts.reserve(subjobs.size());
  for (const SubJob& sj : subjobs) {
    parts.push_back({sj.part, sj.lo, sj.hi});
  }
  service::DatasetSummary summary;
  summary.generator = generator.empty() ? spec.backend : generator;
  summary.seed = spec.seed;
  summary.count = spec.count;
  summary.batch = spec.batch;
  summary.threads = spec.threads;
  Result result;
  result.records = service::merge_dataset_parts(spec.out, parts, spec.seed,
                                                spec.shard_size, summary);
  {
    std::error_code ignored;
    std::filesystem::remove_all(parts_root, ignored);
  }
  result.ranges = subjobs.size();
  result.redispatches = redispatches;
  result.generator = summary.generator;
  emit(summary_event(id, summary.generator, spec));
  log("merged " + std::to_string(result.records) + " records from " +
      std::to_string(result.ranges) + " ranges (" +
      std::to_string(result.redispatches) + " redispatches)");
  return result;
}

}  // namespace syn::fleet
