#include "service/dataset_sink.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "rtl/verilog.hpp"
#include "synth/synthesizer.hpp"

namespace syn::service {

namespace {

/// Takes the advisory lock at `path`: our pid is written to a private
/// temp file which is then link(2)ed into place — atomic, so the lock is
/// never observable without its pid (a created-then-written lock would
/// open a window where a racer reads an empty file and "breaks" a live
/// lock). When the link fails with EEXIST, the pid inside the existing
/// lock decides: a live process means the dir is genuinely in use (throw
/// — the fail-fast that stops two jobs interleaving one dir); a dead or
/// unparsable pid is a stale lock from a crashed run and is broken. One
/// retry after breaking a stale lock; losing that race throws.
void acquire_lockfile(const std::filesystem::path& path);

}  // namespace

DirLock::DirLock(std::filesystem::path dir) : dir_(std::move(dir)) {
  acquire_lockfile(dir_ / ".lock");
  held_ = true;
}

DirLock::~DirLock() { release(); }

DirLock::DirLock(DirLock&& other) noexcept
    : dir_(std::move(other.dir_)), held_(other.held_) {
  other.held_ = false;
}

DirLock& DirLock::operator=(DirLock&& other) noexcept {
  if (this != &other) {
    release();
    dir_ = std::move(other.dir_);
    held_ = other.held_;
    other.held_ = false;
  }
  return *this;
}

void DirLock::release() {
  if (!held_) return;
  held_ = false;
  std::error_code ignored;
  std::filesystem::remove(dir_ / ".lock", ignored);
}

namespace {

void acquire_lockfile(const std::filesystem::path& path) {
  // Unique per acquisition, not just per process: two daemon jobs in one
  // process racing the same dir must not share (and mutually delete) a
  // temp file.
  static std::atomic<unsigned> acquisition{0};
  const std::filesystem::path tmp =
      path.parent_path() /
      (".lock.tmp." + std::to_string(::getpid()) + "." +
       std::to_string(acquisition.fetch_add(1)));
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << ::getpid() << "\n";
    out.flush();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw std::runtime_error("DirLock: failed to write lockfile " +
                               tmp.generic_string());
    }
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (::link(tmp.c_str(), path.c_str()) == 0) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      return;
    }
    if (errno != EEXIST) {
      const std::string reason = std::strerror(errno);
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw std::runtime_error("DirLock: cannot create lockfile " +
                               path.generic_string() + ": " + reason);
    }
    long long owner = 0;
    {
      std::ifstream in(path);
      in >> owner;
    }
    // kill(pid, 0) probes liveness; EPERM still means "alive". Our own
    // pid is always alive — a second sink in this process must fail too.
    const bool alive =
        owner > 0 && (::kill(static_cast<pid_t>(owner), 0) == 0 ||
                      errno == EPERM);
    if (alive) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw std::runtime_error(
          "DirLock: output dir " +
          path.parent_path().generic_string() +
          " is locked by running process " + std::to_string(owner) +
          " (" + path.filename().generic_string() +
          "); another job is writing this dataset — pick a different dir "
          "or wait for it to finish");
    }
    std::error_code ignored;
    std::filesystem::remove(path, ignored);  // stale: owner is gone
  }
  std::error_code ignored;
  std::filesystem::remove(tmp, ignored);
  throw std::runtime_error("DirLock: lost lockfile race for " +
                           path.generic_string());
}

/// Reads "key=value" lines; returns the checkpointed next index when the
/// file exists and both seed and shard_size match (a different seed means
/// a different dataset; a different shard size would scatter resumed
/// designs across a mixed flat/sharded layout — start over either way).
/// Checkpoints from before sharding carry no shard_size line and are
/// treated as the flat layout they produced (shard_size 0).
std::size_t read_checkpoint(const std::filesystem::path& path,
                            std::uint64_t seed, std::size_t shard_size,
                            std::ostream* log) {
  std::ifstream in(path);
  if (!in) return 0;
  std::uint64_t file_seed = 0;
  std::size_t file_shard = 0;
  std::size_t next = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "seed") file_seed = std::strtoull(value.c_str(), nullptr, 10);
    if (key == "shard_size") {
      file_shard = static_cast<std::size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
    }
    if (key == "next") {
      next = static_cast<std::size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
    }
  }
  if (file_seed != seed) {
    if (log) {
      *log << "checkpoint seed " << file_seed << " != seed " << seed
           << "; ignoring checkpoint\n";
    }
    return 0;
  }
  if (file_shard != shard_size) {
    if (log) {
      *log << "checkpoint shard_size " << file_shard << " != shard_size "
           << shard_size << "; ignoring checkpoint\n";
    }
    return 0;
  }
  return next;
}

/// Drops manifest records at or beyond `next`: a run interrupted between
/// appending a group's records and committing its checkpoint replays that
/// group on resume, and the replayed designs must not appear twice.
void prune_manifest(const std::filesystem::path& path, std::size_t next) {
  std::ifstream in(path);
  if (!in) return;
  std::string kept;
  std::string line;
  while (std::getline(in, line)) {
    const auto tag = line.find("\"index\":");
    if (tag == std::string::npos) continue;
    const auto index = static_cast<std::size_t>(
        std::strtoull(line.c_str() + tag + 8, nullptr, 10));
    if (index < next) kept += line + "\n";
  }
  in.close();
  std::ofstream(path, std::ios::trunc) << kept;
}

/// Flushes `out`, the stream writing `path`, and throws if any write to it
/// failed.
void throw_unless_written(std::ofstream& out,
                          const std::filesystem::path& path) {
  out.flush();
  if (!out) {
    throw std::runtime_error("failed to write " + path.generic_string());
  }
}

}  // namespace

std::size_t read_dataset_checkpoint(const std::filesystem::path& dir,
                                    std::uint64_t seed,
                                    std::size_t shard_size,
                                    std::ostream* log) {
  return read_checkpoint(dir / "checkpoint.txt", seed, shard_size, log);
}

void write_dataset_checkpoint(const std::filesystem::path& dir,
                              std::uint64_t seed, std::size_t shard_size,
                              std::size_t next) {
  const auto path = dir / "checkpoint.txt";
  std::ofstream out(path, std::ios::trunc);
  out << "seed=" << seed << "\nshard_size=" << shard_size
      << "\nnext=" << next << "\n";
  throw_unless_written(out, path);
}

std::string shard_dir(std::size_t index, std::size_t shard_size) {
  if (shard_size == 0) return {};
  char name[16];
  std::snprintf(name, sizeof(name), "shard_%04zu", index / shard_size);
  return name;
}

void write_dataset_summary(const std::filesystem::path& dir,
                           const DatasetSummary& summary,
                           std::size_t shard_size) {
  const auto path = dir / "manifest.json";
  std::ofstream out(path, std::ios::trunc);
  out << "{\"generator\":\"" << summary.generator << "\",\"seed\":"
      << summary.seed << ",\"count\":" << summary.count << ",\"batch\":"
      << summary.batch << ",\"threads\":" << summary.threads
      << ",\"shard_size\":" << shard_size
      << ",\"designs\":\"manifest.jsonl\"}\n";
  throw_unless_written(out, path);
}

ShardedDiskSink::ShardedDiskSink(Options options)
    : options_(std::move(options)) {
  std::filesystem::create_directories(options_.dir);
  lock_ = DirLock(options_.dir);
  const auto checkpoint_path = options_.dir / "checkpoint.txt";
  const auto manifest_path = options_.dir / "manifest.jsonl";
  if (options_.fresh) {
    // Discard BOTH files up front: a stale checkpoint surviving a crashed
    // fresh run would make the next invocation believe the (discarded)
    // dataset is complete.
    std::filesystem::remove(manifest_path);
    std::filesystem::remove(checkpoint_path);
    return;
  }
  resume_ = read_checkpoint(checkpoint_path, options_.seed,
                            options_.shard_size, options_.log);
  // Prune manifest records the coming run will regenerate: replays of the
  // partially-committed last group on resume, or — when the checkpoint
  // seed mismatched (resume_ == 0) — the whole stale manifest.
  prune_manifest(manifest_path, resume_);
}

ShardedDiskSink::~ShardedDiskSink() = default;

void ShardedDiskSink::write(const DesignRecord& record) {
  const std::filesystem::path shard =
      shard_dir(record.index, options_.shard_size);
  if (!shard.empty()) {
    std::filesystem::create_directories(options_.dir / shard);
  }
  const graph::Graph& g = record.graph;
  const std::filesystem::path rel = shard / (g.name() + ".v");
  const std::filesystem::path path = options_.dir / rel;
  {
    std::ofstream design(path);
    design << rtl::to_verilog(g);
    design.flush();
    if (!design) {
      throw std::runtime_error("ShardedDiskSink: failed to write " +
                               path.generic_string());
    }
  }

  std::ofstream manifest(options_.dir / "manifest.jsonl", std::ios::app);
  manifest << "{\"index\":" << record.index << ",\"file\":\""
           << rel.generic_string() << "\",\"chain_seed\":"
           << record.chain_seed << ",\"nodes\":" << g.num_nodes()
           << ",\"edges\":" << g.num_edges();
  if (options_.with_synth_stats) {
    const auto stats = synth::synthesize_stats(g);
    manifest << ",\"gates\":" << stats.gates_final << ",\"scpr\":"
             << stats.scpr() << ",\"pcs\":" << stats.pcs();
    if (options_.log) {
      *options_.log << path.generic_string() << ": " << g.num_nodes()
                    << " nodes, " << stats.gates_final << " gates, SCPR "
                    << static_cast<int>(stats.scpr() * 100) << "%\n";
    }
  } else if (options_.log) {
    *options_.log << path.generic_string() << ": " << g.num_nodes()
                  << " nodes, " << g.num_edges() << " edges\n";
  }
  manifest << "}\n";
  manifest.flush();
  if (!manifest) {
    throw std::runtime_error(
        "ShardedDiskSink: failed to append manifest record for " +
        path.generic_string());
  }
}

void ShardedDiskSink::checkpoint(std::size_t next) {
  // A checkpoint that fails to land must abort the run (the writer
  // throws): advancing past unwritten state would make a later resume
  // silently skip designs.
  write_dataset_checkpoint(options_.dir, options_.seed, options_.shard_size,
                           next);
}

void ShardedDiskSink::finalize(const DatasetSummary& summary) {
  write_dataset_summary(options_.dir, summary, options_.shard_size);
}

TeeSink& TeeSink::add(DatasetSink& mirror) {
  mirrors_.push_back(&mirror);
  return *this;
}

void TeeSink::write(const DesignRecord& record) {
  primary_->write(record);
  for (DatasetSink* mirror : mirrors_) mirror->write(record);
}

void TeeSink::checkpoint(std::size_t next) {
  primary_->checkpoint(next);
  for (DatasetSink* mirror : mirrors_) mirror->checkpoint(next);
}

void TeeSink::finalize(const DatasetSummary& summary) {
  primary_->finalize(summary);
  for (DatasetSink* mirror : mirrors_) mirror->finalize(summary);
}

void MemorySink::write(const DesignRecord& record) {
  records_.push_back(record);
}

}  // namespace syn::service
