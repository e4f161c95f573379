// syn_e2e: the end-to-end benchmark executable.
//
//   syn_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE] [--commit ID]
//
// Runs one workload in the current directory, which must be empty (run.py
// makes a fresh one per run and removes it afterwards), pinned to the CPU
// it starts on so the host samples see the core the work runs on (see
// host_speed.hpp). Prints a context line, one line per metric, and last
// the result object
// {"correct","attempted","failed","metrics"}. A traced run reports only the
// per-layer metrics its workload measures; run.py fills in the rest. Exit
// status: 0 when every output check passed, 1 when one failed, 2 on a usage
// or run error, 3 when the wall-clock cap expired.
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "host_speed.hpp"
#include "nn/simd.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

/// Ends the process when a run outlives its cap. No result line is
/// printed, so a hung run can never be read as a measurement.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds cap)
      : thread_([this, cap] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, cap, [this] { return done_; })) {
            std::cerr << "error: run exceeded its " << cap.count()
                      << " s wall-clock cap\n";
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: started after the state it waits on
};

constexpr std::chrono::seconds kWallCap{160};

int usage(const std::string& why) {
  std::cerr << "syn_e2e: " << why
            << "\nusage: syn_e2e --workload dataset-syncircuit|daemon-jobs|"
               "fleet-jobs --seed N --seconds 1..60 --trace 0|1"
               " [--trace-out FILE] [--commit ID]\n";
  return 2;
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  RunArgs args;
  std::string commit = "unknown";
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("every flag takes one value");
  try {
    for (const auto& [flag, value] : flags) {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace is 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (args.seconds < 1 || args.seconds > 60) return usage("--seconds 1..60");
  RunOutput (*run)(const RunArgs&) = nullptr;
  if (args.workload == "dataset-syncircuit") run = run_dataset_syncircuit;
  if (args.workload == "daemon-jobs") run = run_daemon_jobs;
  if (args.workload == "fleet-jobs") run = run_fleet_jobs;
  if (run == nullptr) {
    return usage("unknown workload \"" + args.workload + "\"");
  }
  const std::filesystem::path root = std::filesystem::current_path();
  if (!std::filesystem::is_empty(root)) {
    return usage("the run directory " + root.string() + " is not empty");
  }

  const std::size_t nproc = usable_cpus();
  const int cpu = pin_to_current_cpu();
  std::cout << "context workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " simd=" << syn::nn::active_simd_level_name()
            << " nproc=" << nproc << " pinned_cpu=" << cpu
            << " fs=" << filesystem_type(root) << " build=" << E2E_BUILD_TYPE
            << " commit=" << commit << "\n";
  try {
    const Watchdog watchdog(kWallCap);
    const RunOutput out = run(args);
    print_result(out.metrics, out.tally);
    return out.tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
