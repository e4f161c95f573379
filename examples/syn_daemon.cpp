// syn_daemon: the resident dataset-generation server.
//
//   syn_daemon --socket=PATH [--tcp=PORT] [--node=NAME] [--jobs=N] [--quiet]
//              [--max-queued=N] [--max-active=N] [--max-total-queued=N]
//              [--max-designs=N] [--max-out-bytes=B]
//              [--gc-retain=K] [--gc-ttl-ms=T]
//
// The --max-* flags are admission quotas (all default unlimited):
// per-client queue depth, per-client queued+running, global queue depth,
// designs per job, and bytes already in a job's output dir. Over-quota
// SUBMITs get {"ok":false,"code":"quota_exceeded"}. --gc-retain /
// --gc-ttl-ms bound terminal-job metadata: beyond K retained terminal
// jobs per client (or T ms of age) a job's record is evicted and STATUS
// answers {"ok":false,"code":"expired"}. --node names the daemon in
// HELLO/HEARTBEAT replies (fleet membership is keyed on it).
//
// Listens on a Unix-domain socket (plus optional loopback TCP) for
// newline-delimited JSON requests — SUBMIT / STATUS / LIST / CANCEL /
// STREAM / METRICS / PING / SHUTDOWN — and runs submitted dataset jobs
// through the same GenerationService + ShardedDiskSink pipeline as a
// local generate_dataset run: same sharded layout, same manifests, same
// checkpointed resume, byte-identical output. Drive it with synctl (or
// generate_dataset --daemon=PATH). Runs until a SHUTDOWN request or
// SIGINT/SIGTERM; both drain by default (SHUTDOWN can cancel instead).
#include <string>

#include "server/daemon.hpp"
#include "server_main.hpp"

int main(int argc, char** argv) {
  return syn::examples::run_server<syn::server::Daemon>(
      "syn_daemon", "usage: syn_daemon --socket=PATH\n", argc, argv,
      syn::server::DaemonConfig{},
      [](const std::string&, syn::server::DaemonConfig&) { return false; });
}
