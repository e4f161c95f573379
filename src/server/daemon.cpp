#include "server/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/registry.hpp"
#include "nn/simd.hpp"
#include "rtl/generators.hpp"
#include "server/stream_sink.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "synth/synthesizer.hpp"

namespace syn::server {

using util::Json;

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

core::BackendConfig default_backend_config() {
  core::BackendConfig config;
  config.seed = 7;
  config.syncircuit.diffusion.steps = 6;
  config.syncircuit.diffusion.denoiser = {
      .mpnn_layers = 3, .hidden = 32, .time_dim = 16};
  config.syncircuit.diffusion.epochs = 8;
  config.syncircuit.mcts = {.simulations = 40, .max_depth = 8,
                            .actions_per_state = 8, .max_registers = 6};
  return config;
}

FittedBackend make_default_backend(const std::string& name,
                                   std::ostream* log) {
  std::shared_ptr<core::GeneratorModel> model =
      core::make_generator(name, default_backend_config());

  if (log) *log << "fitting " << model->name() << " on the RTL corpus...\n";
  const auto corpus = rtl::corpus_graphs({.seed = 1});
  model->fit(corpus);

  auto sampler = std::make_shared<core::AttrSampler>();
  sampler->fit(corpus);
  return {std::move(model),
          [sampler](std::size_t i, util::Rng& rng) {
            return sampler->sample(default_attr_nodes(i), rng);
          }};
}

// ------------------------------------------------------------------ Daemon

Daemon::Daemon(DaemonConfig config)
    : Role("syn_daemon", "worker", "records_streamed"),
      config_(std::move(config)),
      server_(config_, *this) {
  if (!config_.factory) {
    config_.factory = [log = config_.log](const std::string& name) {
      return make_default_backend(name, log);
    };
  }
  server_.metrics().declare_track("group_commit_ms", 0.0, 30'000.0, 300);
  server_.metrics().register_gauge("sink_stall_ms", [this] {
    return static_cast<std::int64_t>(
        sink_stall_us_.load(std::memory_order_relaxed) / 1000);
  });
}

Json Daemon::workers_reply() {
  return error_response(
      "this is a worker daemon, not a coordinator (no fleet registry)",
      kErrorCodeNotCoordinator);
}

void Daemon::add_heartbeat_fields(Json& reply) {
  reply.set("stall_ms", sink_stall_us_.load(std::memory_order_relaxed) / 1000);
  reply.set("designs_committed",
            server_.metrics().counter("designs_committed"));
}

void Daemon::add_metrics(Json& metrics) {
  const synth::SynthCacheStats cache = synth::synthesis_cache_stats();
  Json synth_cache;
  synth_cache.set("hits", cache.hits);
  synth_cache.set("misses", cache.misses);
  synth_cache.set("entries", static_cast<std::uint64_t>(cache.entries));
  synth_cache.set("capacity", static_cast<std::uint64_t>(cache.capacity));
  const std::uint64_t lookups = cache.hits + cache.misses;
  synth_cache.set("hit_rate", lookups == 0
                                  ? 0.0
                                  : static_cast<double>(cache.hits) /
                                        static_cast<double>(lookups));
  metrics.set("synth_cache", std::move(synth_cache));

  // Which SIMD tier the inference kernels dispatched to on this host —
  // renders as the info gauge syn_inference_simd_level{value="..."} 1, so
  // fleet throughput differences are attributable to kernel width.
  Json inference;
  inference.set("simd_level", std::string(nn::active_simd_level_name()));
  metrics.set("inference", std::move(inference));
}

FittedBackend Daemon::fitted_backend(const std::string& name) {
  std::unique_lock<std::mutex> lock(backends_mutex_);
  std::shared_ptr<BackendEntry>& slot = backends_[name];
  if (!slot) {
    // First job for this backend builds + fits it; concurrent jobs wait.
    const auto entry = slot = std::make_shared<BackendEntry>();
    lock.unlock();
    FittedBackend backend;
    std::string error;
    try {
      backend = config_.factory(name);
    } catch (const std::exception& e) {
      error = e.what();
    }
    lock.lock();
    entry->backend = std::move(backend);
    entry->error = std::move(error);
    entry->building = false;
    backend_ready_.notify_all();
  }
  const std::shared_ptr<BackendEntry> entry = slot;
  backend_ready_.wait(lock, [&] { return !entry->building; });
  if (!entry->error.empty()) {
    // A failed build stays failed (no retry storm); the error names the
    // backend so a typo'd submit is obvious from STATUS.
    throw std::runtime_error("backend \"" + name + "\": " + entry->error);
  }
  return entry->backend;
}

void Daemon::run_job(const JobSpec& spec, const JobScheduler::Handle& handle,
                     const JobServer::Emit& emit) {
  const FittedBackend backend = fitted_backend(spec.backend);
  MetricsRegistry& registry = server_.metrics();

  service::ShardedDiskSink disk({.dir = spec.out,
                                 .seed = spec.seed,
                                 .shard_size = spec.shard_size,
                                 .fresh = spec.fresh,
                                 .with_synth_stats = spec.synth_stats,
                                 .log = nullptr});
  StreamingManifestSink stream({.job_id = handle.id(),
                                .shard_size = spec.shard_size,
                                .with_synth_stats = spec.synth_stats},
                               emit);
  service::TeeSink tee(disk);
  tee.add(stream);

  auto last_commit = std::chrono::steady_clock::now();
  service::GenerationService svc(
      *backend.model,
      {.batch = {.batch = spec.batch, .threads = spec.threads},
       .queue_capacity = spec.queue,
       // Consumer-thread hook: group-commit cadence + designs durably
       // checkpointed (the "written and committed" count, vs
       // records_streamed which counts emitted events).
       .on_group_committed = [&registry, &last_commit](std::size_t designs) {
         const auto now = std::chrono::steady_clock::now();
         registry.observe("group_commit_ms", ms_between(last_commit, now));
         last_commit = now;
         registry.inc("designs_committed", designs);
       },
       // Producer-side hook: per-backend generation latency (one sample
       // per group) and the cumulative sink write-stall gauge.
       .on_group_generated = [this, &registry, &spec](std::size_t,
                                                      double generate_ms,
                                                      double stall_ms) {
         registry.observe("generate_" + spec.backend + "_ms", generate_ms);
         sink_stall_us_.fetch_add(
             static_cast<std::uint64_t>(stall_ms * 1000.0),
             std::memory_order_relaxed);
       }});
  const std::size_t resumed =
      std::min(std::max(disk.resume_index(), spec.start), spec.count);
  handle.set_progress([&svc, resumed] {
    return JobProgress{resumed + svc.designs_written(),
                       svc.designs_written(), svc.groups_pumped()};
  });
  // The provider above reads svc's atomics; svc dies with this scope, so
  // freeze the final numbers into a value capture on every exit path — a
  // STATUS after completion must not chase a dangling reference.
  struct FreezeProgress {
    const JobScheduler::Handle& handle;
    service::GenerationService& svc;
    std::size_t resumed;
    ~FreezeProgress() {
      handle.set_progress(
          [p = JobProgress{resumed + svc.designs_written(),
                           svc.designs_written(), svc.groups_pumped()}] {
            return p;
          });
    }
  } freeze{handle, svc, resumed};

  server_.log_line(handle.id() + " running (resume at " +
                   std::to_string(resumed) + "/" + std::to_string(spec.count) +
                   ")");
  svc.run({.count = spec.count,
           .seed = spec.seed,
           .first = spec.start,
           .attrs = backend.attrs,
           .cancel = handle.cancel_token()},
          tee);
}

}  // namespace syn::server
