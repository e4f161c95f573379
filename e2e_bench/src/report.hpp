// Helpers shared by the benchmark's workloads: order statistics, failure
// accounting, the dataset digest, process counters and the result line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Interpolated q-quantile (0 for an empty sample).
[[nodiscard]] double quantile(std::span<const double> values, double q);
[[nodiscard]] double median(std::span<const double> values);

/// The tail a sample of n values can report honestly: the highest of
/// p50/p90/p99/p99.9 with at least ten samples beyond it (p50 when even
/// the median has fewer).
struct TailPercentile {
  double q = 0.5;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] double highest_supported_quantile(std::size_t samples);
[[nodiscard]] TailPercentile tail_percentile(std::span<const double> values);

/// Metric names are [A-Za-z0-9_.-]+, start with a letter or digit and
/// are at most 64 characters; units use [A-Za-z0-9_/%.-], at most 16.
[[nodiscard]] bool valid_metric_name(std::string_view name);
[[nodiscard]] bool valid_unit(std::string_view unit);

/// What a client observed for one daemon or fleet job, plus what the
/// output checks found on disk. A job is one operation: it fails when any
/// check fails, however many do.
struct JobOutcome {
  std::string state;  ///< terminal state from the "end" event
  std::size_t expected = 0;
  std::size_t records = 0;  ///< "record" events streamed
  std::size_t manifest_lines = 0;
  bool parts_left = false;  ///< a fleet ".parts" dir survived the merge
  bool digest_ok = true;    ///< false when a regeneration did not match
};
[[nodiscard]] bool job_failed(const JobOutcome& job);

/// Operations attempted and failed over a run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double success_rate() const {
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
  }
};

/// 64-bit FNV-1a over manifest.jsonl and every *.v under `dir`, in
/// sorted relative-path order, each as path + NUL + bytes. Checkpoint,
/// summary and lock files are excluded, so two runs of the same job
/// digest equal exactly when their designs and manifests are
/// byte-identical.
[[nodiscard]] std::uint64_t dataset_digest(const std::filesystem::path& dir);

/// Non-empty lines of `dir`/manifest.jsonl (0 when missing).
[[nodiscard]] std::size_t manifest_lines(const std::filesystem::path& dir);

/// Running mean of per-design SCPR values.
struct ScprSum {
  double sum = 0.0;
  std::size_t count = 0;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};
/// Adds every "scpr" field of `dir`/manifest.jsonl.
void add_manifest_scpr(const std::filesystem::path& dir, ScprSum& into);

/// Process user + system CPU time, seconds.
[[nodiscard]] double process_cpu_s();
/// A "Vm*" field of /proc/self/status in MB (VmHWM, VmPeak, ...).
[[nodiscard]] double proc_status_mb(std::string_view field);

/// Filesystem of the directory `path` lives on: "tmpfs", "ext4", or its
/// statfs(2) magic number in hex.
[[nodiscard]] std::string filesystem_type(const std::filesystem::path& path);
/// CPUs this process may run on.
[[nodiscard]] std::size_t usable_cpus();

/// Derives an independent 64-bit seed for item `index` of stream `salt`
/// under the workload seed (splitmix64 of the three).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t workload_seed,
                                        std::uint64_t salt,
                                        std::uint64_t index);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Wall and CPU time of units of work, as measured and divided by each
/// unit's host slowness (see host_speed.hpp).
struct HostScaled {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double scaled_wall_s = 0.0;
  double scaled_cpu_s = 0.0;
  void add(double unit_wall_s, double unit_cpu_s, double slowness) {
    wall_s += unit_wall_s;
    cpu_s += unit_cpu_s;
    scaled_wall_s += unit_wall_s / slowness;
    scaled_cpu_s += unit_cpu_s / slowness;
  }
};

/// Prints the host slowness of a run's timed units, and its throughput,
/// CPU per design and set-up time as measured, before scaling.
void print_host(std::span<const double> slowness, const HostScaled& work,
                double designs, std::span<const double> raw_setups);

/// Prints the set-up times of a run on one line; setup_s is their median.
void print_setups(std::span<const double> setups);

/// Prints one "name value unit" line per metric, then the final result
/// line {"correct","attempted","failed","metrics"}. Throws
/// std::invalid_argument for a malformed metric name or unit.
void print_result(const std::vector<Metric>& metrics, const Tally& tally);

}  // namespace e2e
