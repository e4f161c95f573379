#include "server/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "server/metrics.hpp"
#include "service/generation_service.hpp"

namespace syn::server {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "queued";
}

bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

void JobScheduler::Handle::set_progress(
    std::function<JobProgress()> provider) const {
  const std::lock_guard<std::mutex> lock(scheduler_->mutex_);
  const auto it = scheduler_->jobs_.find(id_);
  if (it != scheduler_->jobs_.end()) {
    it->second->progress = std::move(provider);
  }
}

JobScheduler::JobScheduler() : JobScheduler(Options{}) {}

JobScheduler::JobScheduler(Options options) : options_(options) {
  if (options_.max_concurrent == 0) options_.max_concurrent = 1;
  pool_ = std::make_unique<util::ThreadPool>(options_.max_concurrent);
}

JobScheduler::~JobScheduler() { shutdown(false); }

std::string JobScheduler::submit(const std::string& client, JobFn fn) {
  if (!fn) throw std::invalid_argument("JobScheduler::submit: empty job");
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    throw std::runtime_error("JobScheduler: shutting down, not accepting jobs");
  }
  const std::string owner = client.empty() ? "anonymous" : client;
  // Admission control. Checked-and-admitted under the one lock, so two
  // racing submits cannot both squeeze through the last quota slot.
  const Quotas& quotas = options_.quotas;
  const std::size_t queued_here = pending_.count(owner)
                                      ? pending_.at(owner).size()
                                      : 0;
  const auto reject = [&](const std::string& what) {
    ++counts_.rejected;
    throw QuotaError("quota exceeded for client \"" + owner + "\": " + what);
  };
  if (quotas.max_queued_per_client > 0 &&
      queued_here >= quotas.max_queued_per_client) {
    reject(std::to_string(queued_here) + " jobs already queued (limit " +
           std::to_string(quotas.max_queued_per_client) + ")");
  }
  const auto active_it = active_.find(owner);
  const std::size_t active_here =
      active_it == active_.end() ? 0 : active_it->second;
  if (quotas.max_active_per_client > 0 &&
      active_here >= quotas.max_active_per_client) {
    reject(std::to_string(active_here) +
           " jobs already queued or running (limit " +
           std::to_string(quotas.max_active_per_client) + ")");
  }
  if (quotas.max_total_queued > 0 &&
      queued_total_ >= quotas.max_total_queued) {
    reject(std::to_string(queued_total_) +
           " jobs queued daemon-wide (limit " +
           std::to_string(quotas.max_total_queued) + ")");
  }

  auto job = std::make_shared<Job>();
  job->id = "job-" + std::to_string(++sequence_);
  job->client = owner;
  job->fn = std::move(fn);
  job->submitted_at = std::chrono::steady_clock::now();
  jobs_.emplace(job->id, job);
  order_.push_back(job->id);
  if (pending_.find(job->client) == pending_.end()) {
    rotation_.push_back(job->client);
  }
  pending_[job->client].push_back(job);
  ++counts_.submitted;
  ++queued_total_;
  ++active_[job->client];
  dispatch_locked();
  return job->id;
}

void JobScheduler::dispatch_locked() {
  while (running_ < options_.max_concurrent) {
    // Least-recently-served client with pending work goes first: a client
    // that floods the queue keeps getting deferred behind everyone who
    // has waited longer, including clients that joined after the flood.
    const std::string* chosen = nullptr;
    for (const std::string& client : rotation_) {
      if (pending_[client].empty()) continue;
      if (!chosen || last_served_[client] < last_served_[*chosen]) {
        chosen = &client;
      }
    }
    if (!chosen) return;
    auto& queue = pending_[*chosen];
    std::shared_ptr<Job> job = std::move(queue.front());
    queue.pop_front();
    last_served_[*chosen] = ++serve_stamp_;
    job->state = JobState::kRunning;
    job->started_at = std::chrono::steady_clock::now();
    ++running_;
    --queued_total_;
    if (options_.metrics) {
      // Safe under mutex_: the registry's lock is a leaf (it never calls
      // back into the scheduler).
      options_.metrics->observe("dispatch_ms", ms_since(job->submitted_at));
    }
    pool_->submit([this, job = std::move(job)]() mutable {
      run_job(std::move(job));
    });
  }
}

void JobScheduler::run_job(std::shared_ptr<Job> job) {
  const Handle handle(this, job->id, &job->cancel);
  JobState outcome = JobState::kDone;
  std::string error;
  try {
    job->fn(handle);
  } catch (const service::CancelledError&) {
    outcome = JobState::kCancelled;
  } catch (const std::exception& e) {
    outcome = JobState::kFailed;
    error = e.what();
  } catch (...) {
    outcome = JobState::kFailed;
    error = "unknown exception";
  }
  std::function<void(const Info&)> on_terminal;
  Info info;
  {
    // Notify under the lock: the destructor's shutdown() wait may free
    // this scheduler the instant running_ hits 0, so past the unlock we
    // only touch local copies (the callback included). The job-duration
    // observe also happens here — options_.metrics is a member access.
    const std::lock_guard<std::mutex> lock(mutex_);
    settle_locked(*job, outcome, std::move(error));
    --running_;
    if (options_.metrics) {
      options_.metrics->observe("job_ms", ms_since(job->started_at));
    }
    dispatch_locked();
    if (options_.on_terminal) {
      on_terminal = options_.on_terminal;
      info = info_locked(*job);
    }
    changed_.notify_all();
  }
  if (on_terminal) on_terminal(info);
}

void JobScheduler::settle_locked(Job& job, JobState outcome,
                                 std::string error) {
  job.state = outcome;
  job.error = std::move(error);
  job.fn = nullptr;  // release captured resources promptly
  switch (outcome) {
    case JobState::kDone:
      ++counts_.done;
      break;
    case JobState::kFailed:
      ++counts_.failed;
      break;
    case JobState::kCancelled:
      ++counts_.cancelled;
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;  // not terminal; settle_locked is never called with these
  }
  const auto it = active_.find(job.client);
  if (it != active_.end() && it->second > 0) --it->second;
}

JobScheduler::Info JobScheduler::info_locked(const Job& job) const {
  Info info;
  info.id = job.id;
  info.client = job.client;
  info.state = job.state;
  info.error = job.error;
  if (job.progress) info.progress = job.progress();
  return info;
}

JobScheduler::Info JobScheduler::info(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::out_of_range("JobScheduler: unknown job \"" + id + "\"");
  }
  return info_locked(*it->second);
}

std::vector<JobScheduler::Info> JobScheduler::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Info> result;
  result.reserve(order_.size());
  for (const std::string& id : order_) {
    result.push_back(info_locked(*jobs_.at(id)));
  }
  return result;
}

bool JobScheduler::cancel(const std::string& id) {
  std::function<void(const Info&)> on_terminal;
  Info info;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    Job& job = *it->second;
    if (is_terminal(job.state)) return false;
    job.cancel.store(true, std::memory_order_relaxed);
    // Running: the body polls the token and unwinds on its own schedule
    // (run_job fires the terminal callback then). Queued: settle here.
    if (job.state != JobState::kQueued) return true;
    auto& queue = pending_[job.client];
    queue.erase(std::remove(queue.begin(), queue.end(), it->second),
                queue.end());
    --queued_total_;
    settle_locked(job, JobState::kCancelled, {});
    if (options_.on_terminal) {
      on_terminal = options_.on_terminal;
      info = info_locked(job);
    }
    changed_.notify_all();
  }
  if (on_terminal) on_terminal(info);
  return true;
}

JobState JobScheduler::wait(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::out_of_range("JobScheduler: unknown job \"" + id + "\"");
  }
  const std::shared_ptr<Job> job = it->second;
  changed_.wait(lock, [&] { return is_terminal(job->state); });
  return job->state;
}

void JobScheduler::shutdown(bool drain) {
  std::function<void(const Info&)> on_terminal;
  std::vector<Info> cancelled;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
    if (!drain) {
      for (auto& [client, queue] : pending_) {
        for (const std::shared_ptr<Job>& job : queue) {
          job->cancel.store(true, std::memory_order_relaxed);
          --queued_total_;
          settle_locked(*job, JobState::kCancelled, {});
          cancelled.push_back(info_locked(*job));
        }
        queue.clear();
      }
      for (auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning) {
          job->cancel.store(true, std::memory_order_relaxed);
        }
      }
      on_terminal = options_.on_terminal;
    }
    changed_.notify_all();
  }
  if (on_terminal) {
    for (const Info& info : cancelled) on_terminal(info);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  changed_.wait(lock, [&] {
    if (running_ > 0) return false;
    if (!drain) return true;
    for (const auto& [client, queue] : pending_) {
      if (!queue.empty()) return false;
    }
    return true;
  });
}

std::size_t JobScheduler::tracked_jobs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

JobScheduler::Counts JobScheduler::counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Counts counts = counts_;
  counts.running = running_;
  counts.queued = queued_total_;
  return counts;
}

std::map<std::string, JobScheduler::ClientLoad> JobScheduler::client_loads()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, ClientLoad> loads;
  for (const auto& [client, active] : active_) {
    ClientLoad& load = loads[client];
    load.active = active;
    const auto it = pending_.find(client);
    load.queued = it == pending_.end() ? 0 : it->second.size();
  }
  return loads;
}

bool JobScheduler::erase_terminal(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || !is_terminal(it->second->state)) return false;
  const std::string client = it->second->client;
  jobs_.erase(it);
  order_.erase(std::remove(order_.begin(), order_.end(), id), order_.end());
  // Last tracked job of this client gone: drop its fair-share state too.
  // Daemon clients are one-per-connection ("conn-N"), so without this the
  // rotation/active maps would grow for the daemon's lifetime — the exact
  // leak the GC exists to close. Rejoining costs the client its serve
  // stamp (it is treated as brand new), which is fair enough.
  const auto active = active_.find(client);
  const bool client_idle =
      (active == active_.end() || active->second == 0);
  if (client_idle) {
    bool still_tracked = false;
    for (const auto& [job_id, job] : jobs_) {
      if (job->client == client) {
        still_tracked = true;
        break;
      }
    }
    if (!still_tracked) {
      active_.erase(client);
      pending_.erase(client);
      last_served_.erase(client);
      rotation_.erase(
          std::remove(rotation_.begin(), rotation_.end(), client),
          rotation_.end());
    }
  }
  return true;
}

}  // namespace syn::server
