// Dataset sinks: where the generation service streams finished designs.
//
// The sink owns everything that used to be inlined in
// examples/generate_dataset.cpp — sharded output directories, manifest
// writing, and checkpointed resume — behind a small interface, so the
// service (and the future daemon/socket front end) can target disk, a
// test buffer, or any other store interchangeably.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/dcg.hpp"

namespace syn::service {

/// Advisory per-directory lock: `<dir>/.lock` holding the owner pid,
/// linked into place atomically. Construction throws std::runtime_error
/// when a LIVE process already holds the lock (fail-fast against two
/// jobs interleaving one dataset dir); a lock whose pid is dead (crashed
/// or killed run) is stale and taken over silently. The destructor
/// releases. Shared by ShardedDiskSink (one lock per part/output dir)
/// and merge_dataset_parts (locking the final dir across the merge).
class DirLock {
 public:
  DirLock() = default;
  explicit DirLock(std::filesystem::path dir);
  ~DirLock();

  DirLock(DirLock&& other) noexcept;
  DirLock& operator=(DirLock&& other) noexcept;
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  void release();
  [[nodiscard]] bool held() const { return held_; }

 private:
  std::filesystem::path dir_;
  bool held_ = false;
};

/// One finished design as it travels producer -> queue -> sink.
struct DesignRecord {
  /// Global dataset index; design `index` is always driven by stream
  /// util::split_streams(seed, count)[index].
  std::size_t index = 0;
  /// The splitmix64 stream seed that drove this design end to end.
  std::uint64_t chain_seed = 0;
  graph::Graph graph;
};

/// Run-level metadata for the completion summary.
struct DatasetSummary {
  std::string generator;
  std::uint64_t seed = 0;
  std::size_t count = 0;
  std::size_t batch = 0;
  int threads = 1;
};

/// Reads `dir`/checkpoint.txt: the first index a resuming run still needs
/// to produce, honoured only when the checkpoint's seed and shard_size
/// match (a different seed is a different dataset; a different shard size
/// would scatter resumed designs across a mixed layout). 0 when missing
/// or mismatched.
[[nodiscard]] std::size_t read_dataset_checkpoint(
    const std::filesystem::path& dir, std::uint64_t seed,
    std::size_t shard_size, std::ostream* log = nullptr);

/// Writes `dir`/checkpoint.txt, the file read_dataset_checkpoint reads:
/// every index < next of the dataset (seed, shard_size) is written.
/// Throws std::runtime_error when the file cannot be written.
void write_dataset_checkpoint(const std::filesystem::path& dir,
                              std::uint64_t seed, std::size_t shard_size,
                              std::size_t next);

/// Shard subdirectory, relative to the dataset dir, of design `index`:
/// "shard_NNNN" for shard index / shard_size, zero-padded to four digits;
/// empty when shard_size is 0 (sharding off). ShardedDiskSink writes each
/// design there, and stream records name the same path in their `file`.
[[nodiscard]] std::string shard_dir(std::size_t index, std::size_t shard_size);

/// Writes `dir`/manifest.json, the run summary of a finished dataset.
/// Throws std::runtime_error when the file cannot be written.
void write_dataset_summary(const std::filesystem::path& dir,
                           const DatasetSummary& summary,
                           std::size_t shard_size);

/// Receives a stream of finished designs. The service calls write() from
/// ONE consumer thread, in ascending index order; checkpoint(next) marks
/// every index < next durably written (the resume point of the next run);
/// finalize() closes the dataset. resume_index() is read once, before
/// generation starts.
class DatasetSink {
 public:
  virtual ~DatasetSink() = default;

  /// First index the next run still needs to produce (0 = fresh dataset).
  [[nodiscard]] virtual std::size_t resume_index() const = 0;

  virtual void write(const DesignRecord& record) = 0;

  /// Commit progress: after this returns, a crash must not lose any
  /// design with index < next.
  virtual void checkpoint(std::size_t next) = 0;

  virtual void finalize(const DatasetSummary& summary) = 0;
};

/// Disk sink with sharded output layout:
///
///   DIR/shard_0000/synthetic_0.v ... (shard_size designs per shard dir)
///   DIR/manifest.jsonl   one JSON record per design (appended per write)
///   DIR/checkpoint.txt   (seed, next) — rewritten by checkpoint()
///   DIR/manifest.json    run summary — written by finalize()
///   DIR/.lock            advisory lockfile (pid) held for the sink's
///                        lifetime — see below
///
/// Resume semantics match the pre-service generate_dataset driver: the
/// checkpoint is honoured only when its seed matches (a different seed
/// means a different dataset), and manifest records at or beyond the
/// resume index are pruned at construction so replayed designs never
/// appear twice.
///
/// Ownership: the sink assumes exclusive use of the output directory.
/// Construction takes an advisory lock (`.lock` holding the owner pid,
/// created with O_EXCL) and throws std::runtime_error when another live
/// process — or another sink in this process — already holds it, so two
/// daemon jobs (or a daemon job and a CLI run) targeting the same dir
/// fail fast instead of interleaving shards. A lockfile whose pid is no
/// longer running (a crashed or killed run) is stale and is taken over
/// silently; the destructor releases the lock.
class ShardedDiskSink final : public DatasetSink {
 public:
  struct Options {
    std::filesystem::path dir = "synthetic_dataset";
    /// Checkpoint compatibility key: must equal the generation seed.
    std::uint64_t seed = 0;
    /// Designs per shard_NNNN subdirectory; 0 writes a flat directory
    /// (the pre-sharding layout).
    std::size_t shard_size = 64;
    /// Discard any existing checkpoint/manifest and start over.
    bool fresh = false;
    /// Synthesize each design to record gates/SCPR/PCS in the manifest
    /// (the expensive part of writing; runs on the sink consumer thread,
    /// overlapped with generation by the service queue).
    bool with_synth_stats = true;
    /// Progress stream (one line per design); null = quiet.
    std::ostream* log = nullptr;
  };

  explicit ShardedDiskSink(Options options);
  ~ShardedDiskSink() override;

  ShardedDiskSink(const ShardedDiskSink&) = delete;
  ShardedDiskSink& operator=(const ShardedDiskSink&) = delete;

  [[nodiscard]] std::size_t resume_index() const override { return resume_; }
  void write(const DesignRecord& record) override;
  void checkpoint(std::size_t next) override;
  void finalize(const DatasetSummary& summary) override;

 private:
  Options options_;
  std::size_t resume_ = 0;
  DirLock lock_;
};

/// Fans one generation stream out to several sinks — e.g. disk plus a
/// live manifest stream back to a daemon client, or disk plus a
/// compressing mirror. The primary sink owns the durable checkpoint, so
/// it alone drives resume; mirrors see the same write/checkpoint/finalize
/// sequence and must tolerate a stream that starts at the primary's
/// resume index rather than 0. Sinks are borrowed, not owned, and must
/// outlive the tee.
class TeeSink final : public DatasetSink {
 public:
  explicit TeeSink(DatasetSink& primary) : primary_(&primary) {}

  /// Registers a mirror; returns *this for chaining.
  TeeSink& add(DatasetSink& mirror);

  [[nodiscard]] std::size_t resume_index() const override {
    return primary_->resume_index();
  }
  void write(const DesignRecord& record) override;
  void checkpoint(std::size_t next) override;
  void finalize(const DatasetSummary& summary) override;

 private:
  DatasetSink* primary_;
  std::vector<DatasetSink*> mirrors_;
};

/// In-memory sink for tests and embedded consumers: keeps every record,
/// tracks the last checkpoint, never resumes. Deliberately non-final —
/// tests subclass it to inject sink failures.
class MemorySink : public DatasetSink {
 public:
  [[nodiscard]] std::size_t resume_index() const override { return 0; }
  void write(const DesignRecord& record) override;
  void checkpoint(std::size_t next) override { checkpointed_ = next; }
  void finalize(const DatasetSummary& summary) override {
    summary_ = summary;
    finalized_ = true;
  }

  [[nodiscard]] const std::vector<DesignRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t checkpointed() const { return checkpointed_; }
  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] const DatasetSummary& summary() const { return summary_; }

 private:
  std::vector<DesignRecord> records_;
  std::size_t checkpointed_ = 0;
  bool finalized_ = false;
  DatasetSummary summary_;
};

}  // namespace syn::service
