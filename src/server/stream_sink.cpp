#include "server/stream_sink.hpp"

#include <stdexcept>
#include <utility>

#include "synth/synthesizer.hpp"
#include "util/json.hpp"

namespace syn::server {

using util::Json;

StreamingManifestSink::StreamingManifestSink(Options options, Emit emit)
    : options_(std::move(options)), emit_(std::move(emit)) {
  if (!emit_) {
    throw std::invalid_argument("StreamingManifestSink: emit is not set");
  }
}

void StreamingManifestSink::write(const service::DesignRecord& record) {
  std::string file = service::shard_dir(record.index, options_.shard_size);
  if (!file.empty()) file += '/';
  file += record.graph.name() + ".v";
  Json event;
  event.set("event", "record");
  event.set("id", options_.job_id);
  event.set("index", record.index);
  event.set("file", std::move(file));
  event.set("chain_seed", record.chain_seed);
  event.set("nodes", static_cast<std::uint64_t>(record.graph.num_nodes()));
  event.set("edges", static_cast<std::uint64_t>(record.graph.num_edges()));
  if (options_.with_synth_stats) {
    const auto stats = synth::synthesize_stats(record.graph);
    event.set("gates", static_cast<std::uint64_t>(stats.gates_final));
    event.set("scpr", stats.scpr());
    event.set("pcs", stats.pcs());
  }
  ++records_;
  emit_(event.dump());
}

void StreamingManifestSink::checkpoint(std::size_t next) {
  Json event;
  event.set("event", "checkpoint");
  event.set("id", options_.job_id);
  event.set("next", next);
  emit_(event.dump());
}

void StreamingManifestSink::finalize(const service::DatasetSummary& summary) {
  Json event;
  event.set("event", "summary");
  event.set("id", options_.job_id);
  event.set("generator", summary.generator);
  event.set("seed", summary.seed);
  event.set("count", summary.count);
  emit_(event.dump());
}

}  // namespace syn::server
