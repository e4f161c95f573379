// JobScheduler: the daemon's multi-client job queue.
//
// Clients submit opaque job bodies; the scheduler runs up to
// `max_concurrent` of them at once on a util::ThreadPool it owns and picks
// the next job fair-share round-robin ACROSS clients — a client that dumps
// 50 jobs into the queue cannot starve a client that submitted one,
// because dispatch rotates between clients with pending work, not through
// a global FIFO. Within one client, jobs run in submission order.
//
// Lifecycle:   queued -> running -> done | failed | cancelled
// Cancel of a queued job removes it without running; cancel of a running
// job trips its cancel token (the body polls it — GenerationService
// checks between groups) and the state lands on cancelled when the body
// honours the token by throwing service::CancelledError, or on the
// body's own outcome if it finishes anyway. shutdown(drain=true) stops
// intake and finishes all queued + running work; drain=false cancels
// everything and waits only for running bodies to unwind.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace syn::server {

class MetricsRegistry;

/// Thrown by JobScheduler::submit when an admission quota would be
/// exceeded. The daemon converts it into an {"ok":false,
/// "code":"quota_exceeded"} response; the job is never enqueued.
struct QuotaError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] const char* to_string(JobState state);
[[nodiscard]] bool is_terminal(JobState state);

/// Pull-model progress snapshot: the job body registers a provider
/// reading whatever counters it has (e.g. GenerationService's atomics),
/// and STATUS calls it on demand.
struct JobProgress {
  std::size_t produced = 0;
  std::size_t written = 0;
  std::size_t groups = 0;
};

class JobScheduler {
 public:
  /// The body's view of its own job: the cancel token to poll (or hand to
  /// GenerationJob.cancel) and the progress-provider registration.
  class Handle {
   public:
    [[nodiscard]] const std::string& id() const { return id_; }
    [[nodiscard]] bool cancelled() const {
      return cancel_->load(std::memory_order_relaxed);
    }
    /// The token itself, for GenerationJob.cancel.
    [[nodiscard]] const std::atomic<bool>* cancel_token() const {
      return cancel_;
    }
    /// Registers a snapshot provider; called from STATUS threads, so it
    /// must be safe to invoke concurrently with the job body.
    void set_progress(std::function<JobProgress()> provider) const;

   private:
    friend class JobScheduler;
    Handle(JobScheduler* scheduler, std::string id,
           const std::atomic<bool>* cancel)
        : scheduler_(scheduler), id_(std::move(id)), cancel_(cancel) {}
    JobScheduler* scheduler_;
    std::string id_;
    const std::atomic<bool>* cancel_;
  };

  /// The job body. Runs on a pool thread. Outcome mapping: returning
  /// normally = done; throwing service::CancelledError = cancelled;
  /// throwing anything else = failed, with the exception text recorded.
  /// A body that wants "cancelled" state must honour its token by
  /// throwing — finishing normally reports done even if the token is set.
  using JobFn = std::function<void(const Handle&)>;

  struct Info {
    std::string id;
    std::string client;
    JobState state = JobState::kQueued;
    std::string error;      ///< what() of a failed body
    JobProgress progress;   ///< live snapshot (all zero before running)
  };

  /// Admission-control limits, all enforced atomically inside submit()
  /// under the scheduler lock (0 = unlimited). A rejected job counts in
  /// Counts::rejected and is otherwise as if it never existed.
  struct Quotas {
    /// Max jobs sitting in one client's queue (running jobs don't count).
    std::size_t max_queued_per_client = 0;
    /// Max queued + running jobs per client.
    std::size_t max_active_per_client = 0;
    /// Max queued jobs across all clients.
    std::size_t max_total_queued = 0;
  };

  /// One atomic snapshot of the scheduler's job accounting, taken under
  /// a single lock so the identity
  ///     submitted == done + failed + cancelled + running + queued
  /// holds EXACTLY in every snapshot (every admitted job is in precisely
  /// one of those states; rejected jobs were never admitted).
  struct Counts {
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t running = 0;
    std::uint64_t queued = 0;
  };

  /// Per-client load, for the METRICS per-client section.
  struct ClientLoad {
    std::size_t queued = 0;
    std::size_t active = 0;  ///< queued + running
  };

  struct Options {
    /// Jobs running at once. Dataset jobs parallelize internally
    /// (generate_batch owns its own pool), so 1–2 is the sweet spot on a
    /// small box.
    std::size_t max_concurrent = 1;
    /// Admission quotas checked at submit().
    Quotas quotas;
    /// Optional observability hook: dispatch latency (submit -> running,
    /// "dispatch_ms") and job duration (running -> terminal, "job_ms")
    /// are observed here. Must outlive the scheduler.
    MetricsRegistry* metrics = nullptr;
    /// Invoked exactly once per job, after its terminal state became
    /// visible to info()/wait() — so anything the callback publishes
    /// (e.g. the daemon's terminal stream event) happens-after the state
    /// change. Runs on an unspecified thread with no scheduler lock held;
    /// it may call back into the scheduler.
    std::function<void(const Info&)> on_terminal;
  };

  explicit JobScheduler(Options options);
  /// Default options (one slot). A separate constructor because a nested
  /// struct's member initializers cannot appear in a default argument
  /// before the enclosing class is complete.
  JobScheduler();
  /// shutdown(drain=false) + wait.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job for `client` and returns its id ("job-N"). Throws
  /// std::runtime_error after shutdown() and QuotaError when an
  /// admission quota would be exceeded.
  std::string submit(const std::string& client, JobFn fn);

  /// Snapshot of one job; throws std::out_of_range for an unknown id.
  [[nodiscard]] Info info(const std::string& id) const;
  /// All jobs, in submission order.
  [[nodiscard]] std::vector<Info> list() const;

  /// Requests cancellation. Queued jobs move to cancelled immediately and
  /// never run; running jobs get their token tripped. Returns false when
  /// the job is unknown or already terminal.
  bool cancel(const std::string& id);

  /// Blocks until `id` reaches a terminal state (throws for unknown id).
  JobState wait(const std::string& id);

  /// Stops intake. drain=true finishes queued + running jobs; false
  /// cancels queued jobs and trips running tokens. Returns once no job
  /// body is running. Idempotent (the first call's drain mode wins).
  void shutdown(bool drain);

  /// Total jobs the scheduler still tracks (all states, pre-GC).
  [[nodiscard]] std::size_t tracked_jobs() const;

  /// One-lock snapshot of the job accounting (see Counts).
  [[nodiscard]] Counts counts() const;
  /// Queue depth + active jobs per client the scheduler still tracks.
  [[nodiscard]] std::map<std::string, ClientLoad> client_loads() const;

  /// GC hook: forgets a TERMINAL job entirely (info/list/wait stop
  /// knowing it). Returns false when the id is unknown or the job is
  /// still queued/running. When this was the client's last tracked job,
  /// the client's fair-share bookkeeping is dropped too, keeping
  /// scheduler state bounded by live work, not daemon lifetime.
  bool erase_terminal(const std::string& id);

 private:
  struct Job {
    std::string id;
    std::string client;
    JobFn fn;
    JobState state = JobState::kQueued;
    std::string error;
    std::atomic<bool> cancel{false};
    std::function<JobProgress()> progress;
    std::chrono::steady_clock::time_point submitted_at{};
    std::chrono::steady_clock::time_point started_at{};
  };

  /// Starts queued jobs while slots are free, picking the least-recently-
  /// served client with pending work each time (ties broken by first-seen
  /// order) — round-robin that stays fair when clients join mid-stream.
  /// Caller holds mutex_.
  void dispatch_locked();
  void run_job(std::shared_ptr<Job> job);
  [[nodiscard]] Info info_locked(const Job& job) const;
  /// Moves a job into a terminal state: bumps the matching terminal
  /// counter and releases the client's active slot. Caller holds mutex_
  /// and has already removed the job from any pending queue.
  void settle_locked(Job& job, JobState outcome, std::string error);

  Options options_;
  std::unique_ptr<util::ThreadPool> pool_;  // max_concurrent workers

  mutable std::mutex mutex_;
  std::condition_variable changed_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::vector<std::string> order_;                   // submission order
  std::map<std::string, std::deque<std::shared_ptr<Job>>> pending_;
  std::vector<std::string> rotation_;  // clients, in first-seen order
  /// Dispatch stamp of each client's most recent job (0 = never served);
  /// the scheduler serves the smallest stamp first.
  std::map<std::string, std::uint64_t> last_served_;
  std::uint64_t serve_stamp_ = 0;
  std::size_t running_ = 0;
  std::size_t sequence_ = 0;
  bool shutdown_ = false;
  /// Monotonic accounting (running/queued are filled in at snapshot
  /// time from running_ / queued_total_).
  Counts counts_;
  std::size_t queued_total_ = 0;
  std::map<std::string, std::size_t> active_;  // queued + running, per client
};

}  // namespace syn::server
