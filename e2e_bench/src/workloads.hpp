// The benchmark's three workloads. Each runs in the process's working
// directory, which the caller guarantees is fresh and empty, and returns
// its metrics plus the operations it attempted and failed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "report.hpp"

namespace e2e {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Where a traced run writes its Chrome trace-event JSON (empty = none).
  std::filesystem::path trace_out;
};

struct RunOutput {
  std::vector<Metric> metrics;
  Tally tally;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

RunOutput run_dataset_syncircuit(const RunArgs& args);
RunOutput run_daemon_jobs(const RunArgs& args);
RunOutput run_fleet_jobs(const RunArgs& args);

}  // namespace e2e
