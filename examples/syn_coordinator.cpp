// syn_coordinator: the fleet-level dataset-generation daemon.
//
//   syn_coordinator --socket=PATH --worker=ADDR [--worker=ADDR ...]
//                   [--hb-ms=T] [--hb-miss=K] [--connect-timeout-ms=T]
//                   [--max-attempts=N]
//                   [--tcp=PORT] [--node=NAME] [--jobs=N] [--quiet]
//                   [--max-queued=N] [--max-active=N] [--max-total-queued=N]
//                   [--max-designs=N] [--max-out-bytes=B]
//                   [--gc-retain=K] [--gc-ttl-ms=T]
//
// Speaks the exact NDJSON grammar syn_daemon speaks (SUBMIT / STATUS /
// LIST / CANCEL / STREAM / METRICS / PING / SHUTDOWN, plus WORKERS for
// the fleet membership table), but instead of generating locally it
// shards each job's seed range across the registered syn_daemon workers
// and merges their outputs into a dataset byte-identical to a
// single-daemon run. Workers are addressed as host:port or unix socket
// paths; a heartbeat loop (--hb-ms interval, --hb-miss consecutive
// misses to evict) keeps the membership live, and a sub-range whose
// worker dies is re-dispatched to a surviving worker, resuming from the
// part checkpoint. The second block of flags is syn_daemon's: the same
// admission quotas and terminal-job GC apply to fleet jobs. Drive it
// with synctl --fleet. Runs until SHUTDOWN or SIGINT/SIGTERM.
#include <chrono>
#include <cstdlib>
#include <string>

#include "fleet/coordinator.hpp"
#include "server_main.hpp"

int main(int argc, char** argv) {
  using syn::examples::flag_value;
  using syn::examples::to_size;
  return syn::examples::run_server<syn::fleet::Coordinator>(
      "syn_coordinator",
      "usage: syn_coordinator --socket=PATH --worker=ADDR [--worker=ADDR ...]\n"
      "       [--hb-ms=T] [--hb-miss=K] [--connect-timeout-ms=T]"
      " [--max-attempts=N]\n",
      argc, argv, syn::fleet::CoordinatorConfig{},
      [](const std::string& arg, syn::fleet::CoordinatorConfig& config) {
        if (const char* v = flag_value(arg, "--worker=")) {
          config.workers.emplace_back(v);
        } else if (const char* v = flag_value(arg, "--hb-ms=")) {
          config.hb_interval =
              std::chrono::milliseconds(std::strtoll(v, nullptr, 10));
        } else if (const char* v = flag_value(arg, "--hb-miss=")) {
          config.hb_miss_limit = to_size(v);
        } else if (const char* v = flag_value(arg, "--connect-timeout-ms=")) {
          config.connect_timeout_ms = std::atoi(v);
        } else if (const char* v = flag_value(arg, "--max-attempts=")) {
          config.max_attempts = to_size(v);
        } else {
          return false;
        }
        return true;
      });
}
