// Command-line plumbing shared by syn_daemon and syn_coordinator: the
// server::ServerConfig flags and the signal-driven serve loop.
#pragma once

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "server/job_server.hpp"

namespace syn::examples {

/// Usage lines for the flags parse_server_flag accepts.
inline constexpr const char* kServerFlagsUsage =
    "       [--tcp=PORT] [--node=NAME] [--jobs=N] [--quiet]\n"
    "       [--max-queued=N] [--max-active=N] [--max-total-queued=N]\n"
    "       [--max-designs=N] [--max-out-bytes=B]"
    " [--gc-retain=K] [--gc-ttl-ms=T]\n";

/// The value of `arg` when it is "<flag>VALUE", else nullptr.
inline const char* flag_value(const std::string& arg, std::string_view flag) {
  return arg.rfind(flag, 0) == 0 ? arg.c_str() + flag.size() : nullptr;
}

/// A flag value as a non-negative count (0 = unlimited where it applies).
inline std::size_t to_size(const char* value) {
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

/// Applies one of the flags both servers take; false when `arg` is none
/// of them (or --jobs is below 1).
inline bool parse_server_flag(const std::string& arg,
                              server::ServerConfig& config) {
  if (const char* v = flag_value(arg, "--socket=")) {
    config.socket_path = v;
  } else if (const char* v = flag_value(arg, "--tcp=")) {
    config.tcp_port = std::atoi(v);
  } else if (const char* v = flag_value(arg, "--node=")) {
    config.node_id = v;
  } else if (const char* v = flag_value(arg, "--jobs=")) {
    if (std::atoi(v) < 1) return false;
    config.max_concurrent = to_size(v);
  } else if (const char* v = flag_value(arg, "--max-queued=")) {
    config.quotas.max_queued_per_client = to_size(v);
  } else if (const char* v = flag_value(arg, "--max-active=")) {
    config.quotas.max_active_per_client = to_size(v);
  } else if (const char* v = flag_value(arg, "--max-total-queued=")) {
    config.quotas.max_total_queued = to_size(v);
  } else if (const char* v = flag_value(arg, "--max-designs=")) {
    config.max_designs_per_job = to_size(v);
  } else if (const char* v = flag_value(arg, "--max-out-bytes=")) {
    config.max_out_bytes = std::strtoull(v, nullptr, 10);
  } else if (const char* v = flag_value(arg, "--gc-retain=")) {
    config.gc_retain = to_size(v);
  } else if (const char* v = flag_value(arg, "--gc-ttl-ms=")) {
    config.gc_ttl = std::chrono::milliseconds(std::strtoll(v, nullptr, 10));
  } else if (arg == "--quiet") {
    config.log = nullptr;
  } else {
    return false;
  }
  return true;
}

/// Parses argv into `config` (shared flags first, then `role_flag`), then
/// runs a Server on it until a protocol SHUTDOWN or SIGINT/SIGTERM (both
/// drain). Returns the process exit code; prints `usage` on a bad flag or
/// a missing --socket.
template <class Server, class Config, class RoleFlag>
int run_server(const char* name, const char* usage, int argc, char** argv,
               Config config, RoleFlag role_flag) {
  config.log = &std::cout;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!parse_server_flag(arg, config) && !role_flag(arg, config)) {
      std::cerr << usage << kServerFlagsUsage;
      return 1;
    }
  }
  if (config.socket_path.empty()) {
    std::cerr << usage << kServerFlagsUsage;
    return 1;
  }
  try {
    // Signals are consumed synchronously on a dedicated sigwait thread —
    // a std::signal handler could not safely touch the server's mutexes
    // and condition variables. Block first, before any thread spawns, so
    // every server thread inherits the mask.
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    Server server(config);
    server.start();
    std::thread signal_waiter([&server, &stop_signals] {
      int signal = 0;
      sigwait(&stop_signals, &signal);
      server.request_stop(/*drain=*/true);
    });
    server.serve();
    // serve() may have ended via a protocol SHUTDOWN instead of a signal;
    // nudge the waiter out of sigwait (request_stop is idempotent).
    ::kill(::getpid(), SIGTERM);
    signal_waiter.join();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace syn::examples
