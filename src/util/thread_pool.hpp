// Fixed-width thread pool with task futures — the execution substrate for
// batched generation (one chunk of designs per task) and any other
// embarrassingly parallel kernel.
//
// Design rules that keep parallel results reproducible:
//   * the pool never owns randomness — tasks receive their own Rng seeded
//     from `split_streams`, so the work decomposition (not the worker
//     schedule) decides every random draw;
//   * `submit` returns a std::future, so callers collect results in task
//     index order and exceptions thrown inside a task propagate to the
//     caller on `get()` instead of killing a worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace syn::util {

/// `count` independent 64-bit RNG stream seeds derived from one seed via
/// splitmix64. Stream i depends only on (seed, i) — never on which thread
/// runs the task — so a parallel map is reproducible at any pool width.
std::vector<std::uint64_t> split_streams(std::uint64_t seed,
                                         std::size_t count);

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = std::thread::hardware_concurrency,
  /// which itself falls back to 1 when unknown).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a nullary callable; the returned future yields its result
  /// (or rethrows its exception) on get().
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([task]() mutable { (*task)(); });
    }
    ready_.notify_one();
    return result;
  }

  /// Runs f(i) for every i in [0, n), blocking until all complete. The
  /// first task exception (lowest index) is rethrown — but only after
  /// every task has finished, since the tasks reference `f` and typically
  /// the caller's locals; unwinding while workers still run them would
  /// leave dangling references.
  template <typename F>
  void parallel_for(std::size_t n, F&& f) {
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      pending.push_back(submit([&f, i] { f(i); }));
    }
    std::exception_ptr first;
    for (auto& p : pending) {
      try {
        p.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_ = false;
};

}  // namespace syn::util
