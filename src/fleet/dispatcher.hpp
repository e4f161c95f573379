// FleetDispatcher: runs ONE client job across the worker fleet.
//
// The job's seed range [start, count) is split into contiguous sub-ranges,
// one per live worker. Each sub-range becomes a normal daemon job on its
// worker — same spec, with start/count narrowed and the output pointed at
// a part directory under `<out>/.parts/` — and a monitor thread streams
// the worker's record/checkpoint events back, rewritten to the fleet job
// id, into the coordinator's event log.
//
// The prefix property of util::split_streams (design i's stream depends
// only on (seed, i)) makes a sub-range run byte-identical to the same
// slice of a full single-daemon run; ShardedDiskSink's global indices
// make a part directory a literal cut-out of the final dataset. So after
// every sub-range completes, merge_dataset_parts stitches the parts into
// an output byte-identical to the single-daemon run of the same spec.
//
// Failover: a sub-range whose worker dies (stream error, or the
// coordinator's heartbeat loop evicts the worker and the dispatcher
// aborts its hung stream) goes back to pending and is re-dispatched to a
// live worker. The part directory's ShardedDiskSink checkpoint survives,
// so the retry RESUMES the range rather than regenerating it — and
// because resumed output is deterministic, the merged dataset is still
// byte-identical. Bounded attempts per sub-range; cancel propagates to
// the workers' jobs.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/registry.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"

namespace syn::fleet {

/// Opens a connection to a worker endpoint; timeout_ms > 0 bounds the
/// connect (io::ConnectError on an unreachable worker).
[[nodiscard]] server::ClientConnection connect_worker(const WorkerEndpoint& ep,
                                                      int timeout_ms);

struct FleetDispatcherConfig {
  /// Fleet membership (borrowed; the coordinator's heartbeat loop feeds
  /// it concurrently). Required.
  WorkerRegistry* registry = nullptr;
  /// Counters/latency for redispatches and sub-job durations (optional).
  server::MetricsRegistry* metrics = nullptr;
  /// Client identity the coordinator presents to workers.
  std::string coordinator_id;
  /// Bound on worker connect + submit handshake, ms.
  int connect_timeout_ms = 2000;
  /// Dispatch attempts per sub-range before the fleet job fails.
  std::size_t max_attempts = 6;
  /// Coordinator log line sink (optional).
  std::function<void(const std::string&)> log;
};

class FleetDispatcher {
 public:
  /// Receives each client-visible event line (already id-rewritten).
  using EmitFn = std::function<void(std::string line)>;

  struct Result {
    /// Records merged into the final dataset (0 when the dataset was
    /// already complete and nothing ran).
    std::size_t records = 0;
    std::size_t ranges = 0;
    std::size_t redispatches = 0;
    /// Generator name reported by the workers' run summaries.
    std::string generator;
  };

  explicit FleetDispatcher(FleetDispatcherConfig config);

  /// Runs `spec` to completion across the fleet; returns after the final
  /// merge. Throws service::CancelledError when handle's token trips
  /// (remote sub-jobs are cancelled first; completed parts stay on disk
  /// for a later resume) and std::runtime_error when a sub-range
  /// exhausts its attempts or no live worker remains.
  Result run(const server::JobSpec& spec,
             const server::JobScheduler::Handle& handle, const EmitFn& emit);

  /// Splits [start, count) into `shards` contiguous near-equal ranges
  /// (first `total % shards` ranges get the extra design). shards is
  /// clamped to [1, total].
  [[nodiscard]] static std::vector<std::pair<std::size_t, std::size_t>>
  split_ranges(std::size_t start, std::size_t count, std::size_t shards);

 private:
  FleetDispatcherConfig config_;
};

}  // namespace syn::fleet
