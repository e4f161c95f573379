// In-memory span recorder for the traced runs. Spans are taken from the
// benchmark's own code around calls into each layer's public functions;
// they are kept in memory and written once, as Chrome trace-event JSON,
// when the run ends.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "report.hpp"

namespace e2e {

struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  /// The request the span belongs to: a design (job × designs per job +
  /// index) in the dataset workload, a job index in the others.
  std::uint64_t index = 0;
  std::uint64_t thread = 0;
};

class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Reserves a span id, so children can name a parent that is still open.
  std::uint64_t open() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ++next_id_;
  }
  /// Records a finished span; returns its id.
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent,
                       std::uint64_t index, std::uint64_t id = 0);

  /// Busy milliseconds of every span called `name`.
  [[nodiscard]] double total_ms(const char* name) const;
  [[nodiscard]] std::size_t size() const;

  /// Writes {"traceEvents":[...]} (complete "X" events, microseconds since
  /// the trace origin).
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
};

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* name, std::uint64_t parent,
             std::uint64_t index)
      : trace_(trace),
        name_(name),
        parent_(parent),
        index_(index),
        id_(trace.open()),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    trace_.record(name_, start_, Clock::now(), parent_, index_, id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Trace& trace_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t index_;
  std::uint64_t id_;
  Clock::time_point start_;
};

}  // namespace e2e
