// Micro-benchmarks (google-benchmark) for the performance-critical
// kernels: bit-blasting, optimization passes, STA, diffusion denoising,
// the MCTS swap/reward loop and Phase 2 repair.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/postprocess.hpp"
#include "core/generator.hpp"
#include "core/registry.hpp"
#include "diffusion/denoiser.hpp"
#include "diffusion/model.hpp"
#include "graph/adjacency.hpp"
#include "graph/algorithms.hpp"
#include "graph/node_type.hpp"
#include "mcts/discriminator.hpp"
#include "mcts/mcts.hpp"
#include "nn/simd.hpp"
#include "rtl/generators.hpp"
#include "server/daemon.hpp"
#include "server/metrics.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "sta/sta.hpp"
#include "synth/bitblast.hpp"
#include "synth/passes.hpp"
#include "synth/synthesizer.hpp"
#include "tests/support/fixtures.hpp"
#include "util/batching.hpp"

namespace {

using namespace syn;

void BM_Bitblast(benchmark::State& state) {
  const auto g = rtl::make_alu(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::bitblast(g));
  }
}
BENCHMARK(BM_Bitblast)->Arg(8)->Arg(16)->Arg(32);

void BM_OptimizePasses(benchmark::State& state) {
  const auto nl = synth::bitblast(rtl::make_alu(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::optimize(nl));
  }
}
BENCHMARK(BM_OptimizePasses)->Arg(8)->Arg(16);

void BM_FullSynthesis(benchmark::State& state) {
  const auto g = rtl::make_register_file(8, static_cast<int>(state.range(0)));
  // Measure the real flow: the memo cache would otherwise serve every
  // iteration after the first (that path is BM_SynthesizeCached).
  synth::reset_synthesis_cache(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::synthesize_stats(g));
  }
  synth::reset_synthesis_cache();
}
BENCHMARK(BM_FullSynthesis)->Arg(8)->Arg(16);

/// The memoized synthesis oracle on a repeated cone: the same workload as
/// BM_FullSynthesis/16, but served from the structural-hash LRU after one
/// priming run — the repeated-cone PCS pattern MCTS produces. Compare this
/// row against BM_FullSynthesis/16 for the cache speedup.
void BM_SynthesizeCached(benchmark::State& state) {
  const auto g = rtl::make_register_file(8, 16);
  synth::reset_synthesis_cache();
  benchmark::DoNotOptimize(synth::synthesize_stats(g));  // prime: one miss
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::synthesize_stats(g));
  }
  synth::reset_synthesis_cache();
}
BENCHMARK(BM_SynthesizeCached);

void BM_Sta(benchmark::State& state) {
  const auto result = synth::synthesize(rtl::make_alu(16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sta::analyze(result.netlist, {.clock_period_ns = 1.0}));
  }
}
BENCHMARK(BM_Sta);

void BM_DenoiserStep(benchmark::State& state) {
  util::Rng rng(1);
  diffusion::Denoiser den({.mpnn_layers = 3, .hidden = 32, .time_dim = 16},
                          rng);
  const auto g = rtl::make_register_file(8, 8);
  const auto attrs = graph::attrs_of(g);
  const auto adj = graph::to_adjacency(g);
  const auto features = diffusion::Denoiser::node_features(attrs);
  const auto parents = diffusion::Denoiser::parent_lists(adj);
  std::vector<diffusion::Pair> pairs;
  std::vector<std::uint8_t> bits;
  for (std::uint32_t i = 0; i < attrs.size(); ++i) {
    for (std::uint32_t j = 0; j < attrs.size(); ++j) {
      if (i != j) {
        pairs.push_back({i, j});
        bits.push_back(adj.at(i, j) ? 1 : 0);
      }
    }
  }
  for (auto _ : state) {
    const auto h = den.encode(features, parents, 3);
    benchmark::DoNotOptimize(den.decode(h, pairs, bits, 3));
  }
  state.SetLabel(nn::active_simd_level_name());
}
BENCHMARK(BM_DenoiserStep);

/// The production Phase 1 model: server::default_backend_config()'s
/// diffusion config, trained once on the RTL corpus.
const diffusion::DiffusionModel& production_diffusion() {
  static const diffusion::DiffusionModel* model = [] {
    auto* m = new diffusion::DiffusionModel(
        server::default_backend_config().syncircuit.diffusion);
    m->train(rtl::corpus_graphs({.seed = 1}));
    return m;
  }();
  return *model;
}

/// Phase 1 at the production config: 8 reverse-diffusion chains per
/// iteration, one DiffusionModel::sample_batch call per chain as
/// SynCircuitGenerator runs it (one chain per design), with attributes
/// drawn as production draws them (AttrSampler over the corpus at
/// default_attr_nodes(i): 60/80/100 nodes). items_per_second is designs
/// per second. scored_share is the share of pair rows the decoder scored,
/// out of the N(N-1) per step a full decode would score (SampleStats).
void BM_DiffusionSample(benchmark::State& state) {
  const auto& model = production_diffusion();
  constexpr std::size_t kChains = 8;
  core::AttrSampler sampler;
  sampler.fit(rtl::corpus_graphs({.seed = 1}));
  util::Rng attr_rng(31);
  std::vector<graph::NodeAttrs> attrs;
  for (std::size_t i = 0; i < kChains; ++i) {
    attrs.push_back(sampler.sample(server::default_attr_nodes(i), attr_rng));
  }
  const auto seeds = util::split_streams(31, kChains);
  std::size_t scored = 0;
  std::size_t rows = 0;  // what a full decode of every step would score
  for (auto _ : state) {
    for (std::size_t c = 0; c < kChains; ++c) {
      util::Rng rng(seeds[c]);
      diffusion::SampleStats stats;
      benchmark::DoNotOptimize(
          model.sample_batch({&attrs[c], 1}, {&rng, 1}, &stats));
      for (const std::size_t s : stats.scored) scored += s;
      rows += stats.pairs * stats.scored.size();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChains));
  state.counters["scored_share"] =
      rows ? static_cast<double>(scored) / static_cast<double>(rows) : 0.0;
  state.SetLabel(nn::active_simd_level_name());
}
BENCHMARK(BM_DiffusionSample);

void BM_Phase2Repair(benchmark::State& state) {
  util::Rng rng(2);
  core::AttrSampler sampler;
  sampler.fit(rtl::corpus_graphs({.seed = 1}));
  const auto attrs = sampler.sample(static_cast<std::size_t>(state.range(0)),
                                    rng);
  graph::AdjacencyMatrix gini(attrs.size());
  nn::Matrix probs(attrs.size(), attrs.size());
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    for (std::size_t j = 0; j < attrs.size(); ++j) {
      if (i != j) gini.set(i, j, rng.bernoulli(0.02));
      probs.at(i, j) = static_cast<float>(rng.uniform());
    }
  }
  for (auto _ : state) {
    util::Rng r(3);
    benchmark::DoNotOptimize(core::repair_to_valid(attrs, gini, probs, r));
  }
}
BENCHMARK(BM_Phase2Repair)->Arg(64)->Arg(128);

void BM_SwapAction(benchmark::State& state) {
  util::Rng rng(4);
  core::AttrSampler sampler;
  sampler.fit(rtl::corpus_graphs({.seed = 1}));
  const auto attrs = sampler.sample(64, rng);
  graph::AdjacencyMatrix gini(attrs.size());
  nn::Matrix probs(attrs.size(), attrs.size());
  for (auto& v : probs.data()) v = static_cast<float>(rng.uniform());
  auto g = core::repair_to_valid(attrs, gini, probs, rng);
  for (auto _ : state) {
    mcts::SwapAction a;
    a.child_a = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
    a.child_b = static_cast<graph::NodeId>(rng.uniform_int(g.num_nodes()));
    if (g.fanins(a.child_a).empty() || g.fanins(a.child_b).empty()) continue;
    a.slot_a = static_cast<int>(rng.uniform_int(g.fanins(a.child_a).size()));
    a.slot_b = static_cast<int>(rng.uniform_int(g.fanins(a.child_b).size()));
    benchmark::DoNotOptimize(mcts::apply_swap(g, a));
  }
}
BENCHMARK(BM_SwapAction);

void BM_PcsFeatures(benchmark::State& state) {
  const auto g = rtl::make_register_file(16, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcts::pcs_features(g));
  }
}
BENCHMARK(BM_PcsFeatures);

using testsupport::redundant_circuit;

const mcts::PcsDiscriminator& fitted_discriminator() {
  static const mcts::PcsDiscriminator* disc = [] {
    auto* d = new mcts::PcsDiscriminator(7);
    d->fit(rtl::corpus_graphs({.seed = 1}), 100);
    return d;
  }();
  return *disc;
}

/// Phase 3 as production runs it: the daemon's MCTS config
/// (server::default_backend_config: one tree, depth 8, 8 actions per
/// state, the 6 largest register cones, 2 passes) and the hybrid reward
/// over a fitted discriminator, on an 80-node circuit. Arg = simulations
/// per cone: 40 is the daemon default, 500 the paper's budget.
void BM_MctsOptimizeRegisters(benchmark::State& state) {
  const auto start = redundant_circuit(80, 7);
  mcts::MctsConfig cfg = server::default_backend_config().syncircuit.mcts;
  cfg.simulations = static_cast<int>(state.range(0));
  const mcts::Reward reward =
      mcts::hybrid_reward_model(fitted_discriminator());
  for (auto _ : state) {
    util::Rng rng(11);
    benchmark::DoNotOptimize(mcts::optimize_registers(start, cfg, reward, rng));
  }
}
BENCHMARK(BM_MctsOptimizeRegisters)->Arg(40)->Arg(500);

/// One fitted instance per backend name, built through the core registry
/// with a deliberately small, uniform training budget — the benchmark
/// measures generation, not fitting.
core::GeneratorModel& fitted_backend(const std::string& name) {
  static auto* cache =
      new std::map<std::string, std::unique_ptr<core::GeneratorModel>>;
  auto it = cache->find(name);
  if (it == cache->end()) {
    core::BackendConfig cfg;
    cfg.seed = 9;
    cfg.epochs = 2;
    cfg.hidden = 16;
    auto model = core::make_generator(name, cfg);
    model->fit({rtl::make_counter(4), rtl::make_fifo_ctrl(2),
                rtl::make_fsm(2, 2)});
    it = cache->emplace(name, std::move(model)).first;
  }
  return *it->second;
}

/// Batch-first generation throughput per baseline backend: 8 designs per
/// iteration through the inherited default generate_batch (batch 4, single
/// thread). items_per_second is the comparable counter; outputs are
/// invariant to the batch/thread shape, so rows measure the batch loop
/// plus the model. SynCircuit has no row: the end-to-end benchmark's
/// dataset-syncircuit workload runs its generate_batch at the production
/// config.
void BM_GenerateBatch(benchmark::State& state, const char* backend) {
  auto& model = fitted_backend(backend);
  constexpr std::size_t kItems = 8;
  core::AttrSampler sampler;
  sampler.fit({rtl::make_counter(4), rtl::make_fifo_ctrl(2),
               rtl::make_fsm(2, 2)});
  util::Rng attr_rng(3);
  std::vector<graph::NodeAttrs> attrs;
  for (std::size_t i = 0; i < kItems; ++i) {
    attrs.push_back(sampler.sample(20, attr_rng));
  }
  const auto seeds = util::split_streams(17, kItems);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.generate_batch(attrs, seeds, {.batch = 4, .threads = 1}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kItems));
  state.SetLabel(nn::active_simd_level_name());
}
BENCHMARK_CAPTURE(BM_GenerateBatch, graphrnn, "graphrnn");
BENCHMARK_CAPTURE(BM_GenerateBatch, dvae, "dvae");
BENCHMARK_CAPTURE(BM_GenerateBatch, graphmaker, "graphmaker");
BENCHMARK_CAPTURE(BM_GenerateBatch, sparsedigress, "sparsedigress");

/// Batched discriminator reward: Arg = batch size (1 = the scalar
/// per-graph path). items_per_second is the comparable number.
void BM_DiscriminatorScore(benchmark::State& state) {
  const auto& disc = fitted_discriminator();
  std::vector<graph::Graph> batch;
  for (std::uint64_t s = 0; s < 32; ++s) {
    batch.push_back(redundant_circuit(48, 20 + s));
  }
  const auto chunk = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    if (chunk <= 1) {
      for (const auto& g : batch) benchmark::DoNotOptimize(disc.predict(g));
    } else {
      util::for_each_chunk(batch.size(), chunk,
                           [&](std::size_t lo, std::size_t n) {
                             benchmark::DoNotOptimize(
                                 disc.score_batch({batch.data() + lo, n}));
                           });
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
  state.SetLabel(nn::active_simd_level_name());
}
BENCHMARK(BM_DiscriminatorScore)->Arg(1)->Arg(8)->Arg(32);

/// TeeSink fan-out overhead: one write delivered to 1 + Arg in-memory
/// sinks (Arg = mirror count; /0 is the pass-through floor). The daemon
/// runs every job through a tee (disk + stream mirror), so this row
/// bounds what the fan-out itself costs relative to the write payload.
void BM_TeeSink(benchmark::State& state) {
  service::MemorySink primary;
  std::vector<service::MemorySink> mirrors(
      static_cast<std::size_t>(state.range(0)));
  service::TeeSink tee(primary);
  for (auto& mirror : mirrors) tee.add(mirror);
  const service::DesignRecord record{
      .index = 0, .chain_seed = 5, .graph = rtl::make_counter(4)};
  for (auto _ : state) {
    tee.write(record);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TeeSink)->Arg(0)->Arg(3);

/// End-to-end dataset service throughput: 8 designs per iteration pumped
/// through GenerationService (producer generate_batch -> bounded queue ->
/// sink consumer thread) into a memory sink. Compare against
/// BM_GenerateBatch/graphrnn — the delta is the whole service layer
/// (queue handoff, validity check, per-group checkpointing, thread
/// spin-up), which should stay a small fraction of generation itself.
void BM_ServiceThroughput(benchmark::State& state) {
  auto& model = fitted_backend("graphrnn");
  constexpr std::size_t kItems = 8;
  core::AttrSampler sampler;
  sampler.fit({rtl::make_counter(4), rtl::make_fifo_ctrl(2),
               rtl::make_fsm(2, 2)});
  service::GenerationService svc(
      model, {.batch = {.batch = 4, .threads = 1}, .queue_capacity = 8});
  const service::GenerationJob job{
      .count = kItems, .seed = 17,
      .attrs = [&sampler](std::size_t, util::Rng& rng) {
        return sampler.sample(20, rng);
      }};
  for (auto _ : state) {
    service::MemorySink sink;
    benchmark::DoNotOptimize(svc.run(job, sink));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kItems));
}
BENCHMARK(BM_ServiceThroughput);

/// METRICS snapshot cost at daemon-like registry population (the counters,
/// gauges and latency tracks the daemon registers, with Arg observations
/// spread across the tracks). The snapshot runs on the request path of
/// every `synctl metrics` poll, so it must stay cheap and — more
/// importantly — hold the registry's leaf lock briefly: inc()/observe()
/// on job threads block behind it.
void BM_MetricsSnapshot(benchmark::State& state) {
  server::MetricsRegistry registry;
  static std::int64_t gauge_source = 0;
  for (const char* name : {"requests", "submit_accepted", "submit_rejected",
                           "stream_events", "records_streamed",
                           "designs_committed", "jobs_expired"}) {
    registry.inc(name, 1000);
  }
  for (const char* name : {"connections", "event_logs", "event_log_lines",
                           "tracked_specs", "terminal_retained",
                           "expired_ring"}) {
    registry.register_gauge(name, [] { return ++gauge_source; });
  }
  registry.declare_track("dispatch_ms", 0.0, 5000.0, 500);
  registry.declare_track("job_ms", 0.0, 300000.0, 600);
  registry.declare_track("group_commit_ms", 0.0, 30000.0, 300);
  util::Rng rng(6);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    registry.observe("dispatch_ms", rng.uniform() * 50.0);
    registry.observe("job_ms", rng.uniform() * 2000.0);
    registry.observe("group_commit_ms", rng.uniform() * 100.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot());
  }
}
BENCHMARK(BM_MetricsSnapshot)->Arg(100)->Arg(10000);

}  // namespace

// Custom main (instead of benchmark_main): identical flag handling plus
// the active SIMD dispatch tier in the context block, so every recorded
// bench_micro.json attributes its numbers to a tier.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("syn_simd_level", syn::nn::active_simd_level_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
