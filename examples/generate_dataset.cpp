// Dataset generation: the paper's headline use case — produce an
// unlimited stream of valid synthetic RTL designs for ML training.
//
// This is a thin CLI over the service layer
// (service::GenerationService + service::ShardedDiskSink):
//
//   generate_dataset [count] [--backend=NAME] [--out=DIR] [--seed=S]
//                    [--batch=K] [--threads=T] [--shard-size=N]
//                    [--queue=N] [--fresh] [--daemon=SOCK]
//
// Any registered backend generates ("syncircuit" default; "graphrnn",
// "dvae", "graphmaker", "sparsedigress" — see core/registry.hpp). Design
// i is driven entirely by the splitmix64 stream
// util::split_streams(seed, count)[i], so the output set is bit-identical
// at any --batch / --threads, and the RNG "state" to checkpoint is just
// (seed, next index). Designs stream to the sharded disk sink with
// backpressure (finished designs are synthesized for manifest stats and
// written while the next group generates); the sink checkpoints after
// every group, so re-running with the same --out resumes where the
// previous run stopped (--fresh discards the checkpoint).
//
// With --daemon=SOCK the run is submitted to a resident syn_daemon on
// that Unix socket instead of executing locally: the job's manifest
// records stream back live, and the resulting dataset is byte-identical
// to the local run (same service, same sink, same RNG streams).
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "core/registry.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "server/protocol.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "synth/synthesizer.hpp"

namespace {

using namespace syn;

struct Options {
  std::size_t count = 5;
  std::string backend = "syncircuit";
  std::filesystem::path out = "synthetic_dataset";
  std::uint64_t seed = 99;
  std::size_t batch = 8;
  int threads = 1;
  std::size_t shard_size = 64;
  std::size_t queue = 32;
  bool fresh = false;
  std::filesystem::path daemon;  // non-empty = submit to syn_daemon
};

int usage() {
  std::cerr << "usage: generate_dataset [count] [--backend=NAME]"
               " [--out=DIR] [--seed=S] [--batch=K] [--threads=T]"
               " [--shard-size=N] [--queue=N] [--fresh] [--daemon=SOCK]\n"
               "backends:";
  for (const auto& name : core::registered_generators()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  long long count_arg = static_cast<long long>(opt.count);
  long long batch_arg = static_cast<long long>(opt.batch);
  long long shard_arg = static_cast<long long>(opt.shard_size);
  long long queue_arg = static_cast<long long>(opt.queue);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) {
      opt.backend = arg.substr(10);
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out = arg.substr(6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--batch=", 0) == 0) {
      batch_arg = std::atoll(arg.c_str() + 8);
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--shard-size=", 0) == 0) {
      shard_arg = std::atoll(arg.c_str() + 13);
    } else if (arg.rfind("--queue=", 0) == 0) {
      queue_arg = std::atoll(arg.c_str() + 8);
    } else if (arg == "--fresh") {
      opt.fresh = true;
    } else if (arg.rfind("--daemon=", 0) == 0) {
      opt.daemon = arg.substr(9);
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      count_arg = std::atoll(arg.c_str());
    }
  }
  // Validate before the signed -> size_t casts: a negative value must be
  // an immediate usage error, not a wrapped huge count.
  if (count_arg <= 0 || batch_arg <= 0 || queue_arg <= 0 || shard_arg < 0) {
    std::cerr << "count, --batch and --queue must be positive"
                 " (--shard-size may be 0 for a flat layout)\n";
    return 1;
  }
  opt.count = static_cast<std::size_t>(count_arg);
  opt.batch = static_cast<std::size_t>(batch_arg);
  opt.shard_size = static_cast<std::size_t>(shard_arg);
  opt.queue = static_cast<std::size_t>(queue_arg);

  if (!opt.daemon.empty()) {
    // Daemon mode: submit the identical spec and tail the manifest
    // stream; the daemon's GenerationService + ShardedDiskSink produce
    // the same bytes a local run would.
    try {
      server::JobSpec spec;
      spec.count = opt.count;
      spec.seed = opt.seed;
      spec.backend = opt.backend;
      spec.out = std::filesystem::absolute(opt.out);
      spec.batch = opt.batch;
      spec.threads = opt.threads;
      spec.shard_size = opt.shard_size;
      spec.queue = opt.queue;
      spec.fresh = opt.fresh;
      auto conn = server::ClientConnection::connect_unix(opt.daemon);
      const std::string id = conn.submit(spec);
      std::cout << "submitted " << id << " to " << opt.daemon.string()
                << "; streaming manifest records...\n";
      const std::string state = conn.stream(id, [](const util::Json& event) {
        std::cout << event.dump() << "\n";
      });
      std::cout << "job " << id << " " << state << "\n";
      return state == "done" ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  try {
    // Sink first: a completed dataset must exit in milliseconds, before
    // the (minutes-long) model fit.
    service::ShardedDiskSink sink({.dir = opt.out,
                                   .seed = opt.seed,
                                   .shard_size = opt.shard_size,
                                   .fresh = opt.fresh,
                                   .with_synth_stats = true,
                                   .log = &std::cout});
    const service::GenerationServiceConfig service_options{
        .batch = {.batch = opt.batch, .threads = opt.threads},
        .queue_capacity = opt.queue};

    // Completed datasets exit here, before the fit; the service still
    // re-finalizes an exactly-complete checkpoint, so a crash that lost
    // manifest.json is repaired by a cheap rerun. The summary needs only
    // the generator's name, so the model stays unfitted.
    if (sink.resume_index() >= opt.count) {
      const auto generator = core::make_generator(
          opt.backend, server::default_backend_config());
      service::GenerationService(*generator, service_options)
          .run({.count = opt.count,
                .seed = opt.seed,
                .attrs = [](std::size_t, util::Rng&) {
                  return graph::NodeAttrs{};  // never invoked: 0 to produce
                }},
               sink);
      std::cout << "checkpoint says all " << opt.count
                << " designs are done — nothing to do (use --fresh to "
                   "regenerate)\n";
      return 0;
    }
    if (sink.resume_index() > 0) {
      std::cout << "resuming at design " << sink.resume_index() << "/"
                << opt.count << "\n";
    }

    // The daemon's factory: the same model, fit and attrs, so daemon jobs
    // are byte-identical to local runs.
    const server::FittedBackend backend =
        server::make_default_backend(opt.backend, &std::cout);
    const auto stats =
        service::GenerationService(*backend.model, service_options)
            .run({.count = opt.count, .seed = opt.seed, .attrs = backend.attrs},
                 sink);

    const auto cache = synth::synthesis_cache_stats();
    std::cout << "done — " << stats.produced << " designs this run, "
              << opt.count << " total in " << opt.out.string()
              << " (synthesis cache: " << cache.hits << " hits / "
              << cache.misses << " misses)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
