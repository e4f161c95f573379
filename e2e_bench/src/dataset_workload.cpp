// dataset-syncircuit: offline GenerationService jobs through
// ShardedDiskSink, on the syncircuit backend the daemon builds, with a
// default server::JobSpec's batching, threads, shard size and queue — the
// settings generate_dataset and a daemon SUBMIT use unless told otherwise.
//
// The untraced run times whole jobs. The traced run runs the same jobs
// twice: once untraced, then through an adapter model that repeats
// SynCircuitGenerator::generate_batch's chunk loop with spans around each
// phase call and a timed reward, into a timed sink decorator. Both copies
// must be byte-identical.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/generator.hpp"
#include "core/postprocess.hpp"
#include "core/registry.hpp"
#include "core/syncircuit.hpp"
#include "host_speed.hpp"
#include "mcts/discriminator.hpp"
#include "mcts/mcts.hpp"
#include "rtl/generators.hpp"
#include "server/daemon.hpp"
#include "server/protocol.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "synth/synthesizer.hpp"
#include "trace.hpp"
#include "util/batching.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace syn;

namespace {

/// Designs per job; every other job setting is a default JobSpec's. Two
/// producer groups per job, so a run has enough jobs for steady job
/// latency percentiles.
constexpr std::size_t kJobDesigns = 16;
/// Jobs every untraced run completes; scpr_mean covers exactly these, so
/// it is fixed by the seed.
constexpr std::size_t kFixedJobs = 16;
/// peak_rss_mb is read after this many jobs, once the working set
/// exists. Later, allocator retention steps RSS up by 8-10 MB at random
/// jobs, which would make the metric count jobs and luck rather than the
/// working set.
constexpr std::size_t kRssJobs = 4;
/// Jobs the traced run replays, untraced and then traced.
constexpr std::size_t kTracedJobs = 16;
/// Stream salt for job seeds.
constexpr std::uint64_t kJobSalt = 0xda7a;
/// hybrid_reward_model's default observability bonus, which the
/// syncircuit backend's reward uses.
constexpr double kRewardBonus = 10.0;

struct Fitted {
  std::unique_ptr<core::GeneratorModel> model;
  core::AttrSampler sampler;
  double setup_s = 0.0;
  double fit_s = 0.0;
};

/// Corpus + fit exactly as server::make_default_backend builds the
/// syncircuit backend, from an empty synthesis memo so every set-up does
/// the same work.
Fitted fit_syncircuit() {
  synth::reset_synthesis_cache();
  Fitted f;
  const auto start = Clock::now();
  const auto corpus = rtl::corpus_graphs({.seed = 1});
  f.model =
      core::make_generator("syncircuit", server::default_backend_config());
  const auto fit_start = Clock::now();
  f.model->fit(corpus);
  f.fit_s = ms_between(fit_start, Clock::now()) / 1000.0;
  f.sampler.fit(corpus);
  f.setup_s = ms_between(start, Clock::now()) / 1000.0;
  return f;
}

struct RewardStats {
  std::atomic<std::int64_t> score_ns{0};
  std::atomic<std::int64_t> observability_ns{0};
  std::atomic<std::int64_t> root_ns{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> states{0};
};

std::int64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// hybrid_reward_model rebuilt from its public parts with timers. The
/// batch path keeps its arithmetic (same clamp, same terms), so scores
/// are bitwise those of the untimed reward.
mcts::Reward timed_reward(const mcts::PcsDiscriminator& disc,
                          RewardStats& stats) {
  mcts::RewardFn scalar = mcts::hybrid_reward(disc, kRewardBonus);
  mcts::RewardFn single = [scalar, &stats](const graph::Graph& g) {
    const auto t0 = Clock::now();
    const double r = scalar(g);
    stats.root_ns += ns_between(t0, Clock::now());
    return r;
  };
  const double scale = std::max(disc.label_scale(), 1e-9);
  mcts::BatchRewardFn batch = [&disc, &stats,
                               scale](std::span<const graph::Graph> gs) {
    const auto t0 = Clock::now();
    const std::vector<double> raw = disc.score_batch(gs);
    const auto t1 = Clock::now();
    std::vector<double> observable(gs.size());
    for (std::size_t i = 0; i < gs.size(); ++i) {
      observable[i] = mcts::observable_register_fraction(gs[i]);
    }
    const auto t2 = Clock::now();
    std::vector<double> out(gs.size());
    for (std::size_t i = 0; i < gs.size(); ++i) {
      const double learned = std::clamp(raw[i] / scale, 0.0, 1.0);
      out[i] = kRewardBonus * observable[i] + learned;
    }
    stats.score_ns += ns_between(t0, t1);
    stats.observability_ns += ns_between(t1, t2);
    stats.calls += 1;
    stats.states += gs.size();
    return out;
  };
  return {std::move(single), std::move(batch)};
}

/// Wraps the fitted syncircuit model. generate_batch repeats
/// SynCircuitGenerator::generate_batch's chunk loop call for call, with a
/// span around each phase.
class TracedSynCircuit final : public core::GeneratorModel {
 public:
  TracedSynCircuit(core::SynCircuitGenerator& inner, Trace& trace,
                   RewardStats& stats)
      : inner_(inner),
        trace_(trace),
        mcts_(server::default_backend_config().syncircuit.mcts),
        reward_(timed_reward(inner.discriminator(), stats)) {}

  /// Starts a job: spans hang under `job_span`, and design indices are
  /// numbered from `first_design`.
  void begin_job(std::uint64_t job_span, std::uint64_t first_design) {
    job_span_ = job_span;
    next_design_ = first_design;
  }

  void fit(const std::vector<graph::Graph>&) override {
    throw std::logic_error("TracedSynCircuit wraps an already fitted model");
  }
  graph::Graph generate(const graph::NodeAttrs& attrs,
                        util::Rng& rng) override {
    return inner_.generate(attrs, rng);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  using GeneratorModel::generate_batch;
  std::vector<graph::Graph> generate_batch(
      std::span<const graph::NodeAttrs> attrs_list,
      std::span<const std::uint64_t> seeds,
      const core::GenerateBatchOptions& options) override {
    const std::size_t count = attrs_list.size();
    const std::uint64_t base = next_design_;
    next_design_ += count;
    const ScopedSpan batch_span(trace_, "core.generate_batch", job_span_, base);
    std::vector<graph::Graph> out(count);
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    util::for_each_chunk(count, options.batch,
                         [&](std::size_t lo, std::size_t n) {
                           chunks.emplace_back(lo, n);
                         });
    const auto run_chunk = [&](std::size_t lo, std::size_t n) {
      const ScopedSpan chunk(trace_, "core.chunk", batch_span.id(), base + lo);
      std::vector<util::Rng> rngs;
      rngs.reserve(n);
      for (std::size_t k = 0; k < n; ++k) rngs.emplace_back(seeds[lo + k]);
      std::vector<diffusion::DiffusionSample> phase1;
      {
        const ScopedSpan s(trace_, "diffusion.sample_batch", chunk.id(),
                           base + lo);
        phase1 = inner_.diffusion_model().sample_batch(
            attrs_list.subspan(lo, n), rngs);
      }
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t design = base + lo + k;
        graph::Graph gval;
        {
          const ScopedSpan s(trace_, "core.repair_to_valid", chunk.id(),
                             design);
          gval = core::repair_to_valid(attrs_list[lo + k], phase1[k].adjacency,
                                       phase1[k].edge_prob, rngs[k]);
        }
        graph::Graph gopt;
        {
          const ScopedSpan s(trace_, "mcts.optimize_registers", chunk.id(),
                             design);
          gopt = mcts::optimize_registers(gval, mcts_, reward_, rngs[k]);
        }
        gopt.set_name("syncircuit");
        out[lo + k] = std::move(gopt);
      }
    };
    if (options.threads > 1 && chunks.size() > 1) {
      util::ThreadPool pool(static_cast<std::size_t>(options.threads));
      pool.parallel_for(chunks.size(), [&](std::size_t c) {
        run_chunk(chunks[c].first, chunks[c].second);
      });
    } else {
      for (const auto& [lo, n] : chunks) run_chunk(lo, n);
    }
    return out;
  }

 private:
  core::SynCircuitGenerator& inner_;
  Trace& trace_;
  mcts::MctsConfig mcts_;
  mcts::Reward reward_;
  std::uint64_t job_span_ = 0;
  std::uint64_t next_design_ = 0;
};

/// Times the disk sink's calls. write() synthesizes first, so the sink's
/// own synthesize_stats call is a memo hit and sink.write is Verilog emit
/// plus file I/O.
class TimedSink final : public service::DatasetSink {
 public:
  TimedSink(service::DatasetSink& inner, Trace& trace, std::uint64_t parent,
            std::uint64_t first_design)
      : inner_(inner), trace_(trace), parent_(parent), first_(first_design) {}

  [[nodiscard]] std::size_t resume_index() const override {
    return inner_.resume_index();
  }
  void write(const service::DesignRecord& record) override {
    {
      const ScopedSpan s(trace_, "synth.synthesize_stats", parent_,
                         first_ + record.index);
      (void)synth::synthesize_stats(record.graph);
    }
    const ScopedSpan s(trace_, "sink.write", parent_, first_ + record.index);
    inner_.write(record);
  }
  void checkpoint(std::size_t next) override {
    const ScopedSpan s(trace_, "sink.checkpoint", parent_, first_ + next);
    inner_.checkpoint(next);
  }
  void finalize(const service::DatasetSummary& summary) override {
    const ScopedSpan s(trace_, "sink.finalize", parent_, first_);
    inner_.finalize(summary);
  }

 private:
  service::DatasetSink& inner_;
  Trace& trace_;
  std::uint64_t parent_;
  std::uint64_t first_;
};

struct JobRun {
  fs::path dir;
  std::size_t produced = 0;
  double job_ms = 0.0;
  double first_commit_ms = 0.0;
};

/// Totals of the service's hooks: on_group_generated (producer side) and
/// the commit cadence the daemon's group_commit_ms track also measures.
struct ServiceTotals {
  double generate_ms = 0.0;
  double stall_ms = 0.0;
  double commit_gap_ms = 0.0;
  std::size_t commits = 0;
};

/// Tracing hooks for one job; absent for untraced jobs.
struct TraceHooks {
  Trace& trace;
  TracedSynCircuit& model;
  ServiceTotals& service;
};

JobRun run_job(core::GeneratorModel& model, const core::AttrSampler& sampler,
               std::uint64_t seed, const fs::path& dir, std::size_t job,
               TraceHooks* hooks) {
  JobRun run;
  run.dir = dir;
  const server::JobSpec spec;
  const auto start = Clock::now();
  std::optional<ScopedSpan> job_span;
  if (hooks != nullptr) job_span.emplace(hooks->trace, "service.job", 0, job);
  service::ShardedDiskSink disk({.dir = dir,
                                 .seed = seed,
                                 .shard_size = spec.shard_size,
                                 .fresh = true,
                                 .with_synth_stats = spec.synth_stats,
                                 .log = nullptr});
  std::optional<Clock::time_point> first_commit;
  Clock::time_point last_commit = Clock::now();
  ServiceTotals* totals = hooks != nullptr ? &hooks->service : nullptr;
  service::GenerationServiceConfig config{
      .batch = {.batch = spec.batch, .threads = spec.threads},
      .queue_capacity = spec.queue};
  // Runs on the sink consumer thread, which run() joins before returning.
  config.on_group_committed = [&first_commit, &last_commit,
                               totals](std::size_t) {
    const auto now = Clock::now();
    if (!first_commit) first_commit = now;
    if (totals != nullptr) {
      totals->commit_gap_ms += ms_between(last_commit, now);
      ++totals->commits;
    }
    last_commit = now;
  };
  core::GeneratorModel* producer = &model;
  std::optional<TimedSink> timed;
  service::DatasetSink* sink = &disk;
  if (hooks != nullptr) {
    const std::uint64_t first_design = job * kJobDesigns;
    hooks->model.begin_job(job_span->id(), first_design);
    producer = &hooks->model;
    timed.emplace(disk, hooks->trace, job_span->id(), first_design);
    sink = &*timed;
    config.on_group_generated = [totals](std::size_t, double generate_ms,
                                         double stall_ms) {
      totals->generate_ms += generate_ms;
      totals->stall_ms += stall_ms;
    };
  }
  service::GenerationService svc(*producer, config);
  const service::GenerationStats stats = svc.run(
      {.count = kJobDesigns,
       .seed = seed,
       .attrs = [&sampler](std::size_t i, util::Rng& rng) {
         return sampler.sample(server::default_attr_nodes(i), rng);
       }},
      *sink);
  const auto end = Clock::now();
  run.produced = stats.produced;
  run.job_ms = ms_between(start, end);
  run.first_commit_ms = first_commit ? ms_between(start, *first_commit)
                                     : run.job_ms;
  return run;
}

/// A job's designs as operations: each design missing from the job's
/// output (not produced, or no manifest line) is one failure.
void tally_job(const JobRun& run, Tally& tally) {
  const std::size_t present =
      std::min({run.produced, manifest_lines(run.dir), kJobDesigns});
  for (std::size_t i = 0; i < kJobDesigns; ++i) tally.add(i < present);
}

void add_digest_check(bool match, Tally& tally) {
  if (!match && tally.failed < tally.attempted) ++tally.failed;
}

std::uint64_t job_seed(const RunArgs& args, std::size_t job) {
  return derive_seed(args.seed, kJobSalt, job);
}

}  // namespace

RunOutput run_dataset_syncircuit(const RunArgs& args) {
  RunOutput out;
  SlownessTrack host;
  std::vector<double> raw_setups;
  std::vector<double> setups;
  std::vector<double> fits;
  Fitted fitted;
  for (int i = 0; i < kSetups; ++i) {
    fitted = fit_syncircuit();
    raw_setups.push_back(fitted.setup_s);
    setups.push_back(fitted.setup_s / host.after_unit());
    fits.push_back(fitted.fit_s);
  }

  if (!args.trace) {
    // Jobs run back to back until the deadline; the host is sampled
    // between them, and each job's times are scaled by its slowness.
    const auto deadline =
        Clock::now() + std::chrono::seconds(args.seconds);
    synth::reset_synthesis_cache();
    std::vector<JobRun> jobs;
    std::vector<double> job_ms;
    std::vector<double> first_ms;
    std::vector<double> slowness;
    HostScaled work;
    double prefix_hwm_mb = 0.0;
    while (jobs.size() < kFixedJobs || Clock::now() < deadline) {
      const std::size_t j = jobs.size();
      const double cpu0 = process_cpu_s();
      const auto start = Clock::now();
      jobs.push_back(run_job(*fitted.model, fitted.sampler, job_seed(args, j),
                             "jobs/j" + std::to_string(j), j, nullptr));
      const double wall_s = ms_between(start, Clock::now()) / 1000.0;
      const double cpu_s = process_cpu_s() - cpu0;
      if (jobs.size() == kRssJobs) prefix_hwm_mb = proc_status_mb("VmHWM");
      const double s = host.after_unit();
      work.add(wall_s, cpu_s, s);
      job_ms.push_back(jobs.back().job_ms / s);
      first_ms.push_back(jobs.back().first_commit_ms / s);
      slowness.push_back(s);
    }

    std::size_t designs = 0;
    for (const JobRun& run : jobs) {
      designs += run.produced;
      tally_job(run, out.tally);
    }
    // Determinism check: job 0 again, straight through the same path.
    const JobRun again = run_job(*fitted.model, fitted.sampler,
                                 job_seed(args, 0), "regen", 0, nullptr);
    add_digest_check(dataset_digest(again.dir) == dataset_digest(jobs[0].dir),
                     out.tally);
    ScprSum scpr;
    for (std::size_t j = 0; j < kFixedJobs; ++j) {
      add_manifest_scpr(jobs[j].dir, scpr);
    }
    const double n = static_cast<double>(std::max<std::size_t>(designs, 1));
    const TailPercentile tail = tail_percentile(job_ms);
    std::cout << "jobs " << jobs.size() << " of " << kJobDesigns
              << " designs; job_ms tail p" << tail.q * 100 << " = "
              << tail.value << " ms (n=" << tail.samples << ")\n";
    print_host(slowness, work, n, raw_setups);
    print_setups(setups);
    out.metrics = {
        {"designs_per_s", static_cast<double>(designs) / work.scaled_wall_s,
         "designs/s"},
        {"setup_s", median(setups), "s"},
        {"cpu_ms_per_design", work.scaled_cpu_s * 1000.0 / n, "ms"},
        {"peak_rss_mb", prefix_hwm_mb, "MB"},
        {"job_ms_p50", median(job_ms), "ms"},
        {"job_ms_p90", quantile(job_ms, 0.9), "ms"},
        {"first_record_ms_p50", median(first_ms), "ms"},
        {"success_rate", out.tally.success_rate(), "fraction"},
        {"scpr_mean", scpr.mean(), "ratio"},
    };
    return out;
  }

  // Traced run: the first kTracedJobs jobs untraced, then the same jobs
  // traced.
  auto* syncircuit = dynamic_cast<core::SynCircuitGenerator*>(
      fitted.model.get());
  if (syncircuit == nullptr) {
    throw std::logic_error("syncircuit backend is not a SynCircuitGenerator");
  }
  synth::reset_synthesis_cache();
  std::vector<JobRun> plain;
  const auto plain_start = Clock::now();
  for (std::size_t j = 0; j < kTracedJobs; ++j) {
    plain.push_back(run_job(*fitted.model, fitted.sampler, job_seed(args, j),
                            "plain/j" + std::to_string(j), j, nullptr));
  }
  const double plain_ms = ms_between(plain_start, Clock::now());

  synth::reset_synthesis_cache();
  const auto traced_start = Clock::now();
  Trace trace(traced_start);
  RewardStats reward;
  TracedSynCircuit traced_model(*syncircuit, trace, reward);
  ServiceTotals service;
  TraceHooks hooks{trace, traced_model, service};
  std::vector<JobRun> traced;
  for (std::size_t j = 0; j < kTracedJobs; ++j) {
    traced.push_back(run_job(*fitted.model, fitted.sampler, job_seed(args, j),
                             "traced/j" + std::to_string(j), j, &hooks));
  }
  const double traced_ms = ms_between(traced_start, Clock::now());
  const synth::SynthCacheStats cache = synth::synthesis_cache_stats();

  std::size_t designs = 0;
  for (std::size_t j = 0; j < kTracedJobs; ++j) {
    designs += traced[j].produced;
    tally_job(plain[j], out.tally);
    tally_job(traced[j], out.tally);
    add_digest_check(
        dataset_digest(plain[j].dir) == dataset_digest(traced[j].dir),
        out.tally);
  }
  if (!args.trace_out.empty()) trace.write_chrome_json(args.trace_out);

  const double n = static_cast<double>(std::max<std::size_t>(designs, 1));
  const double ms_ns = 1e-6;
  const double diffusion = trace.total_ms("diffusion.sample_batch");
  const double repair = trace.total_ms("core.repair_to_valid");
  const double optimize = trace.total_ms("mcts.optimize_registers");
  const double chunks = trace.total_ms("core.chunk");
  const double score = static_cast<double>(reward.score_ns.load()) * ms_ns;
  const double observability =
      static_cast<double>(reward.observability_ns.load()) * ms_ns;
  const double root = static_cast<double>(reward.root_ns.load()) * ms_ns;
  const auto calls = static_cast<double>(reward.calls.load());
  const auto states = static_cast<double>(reward.states.load());
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  std::cout << "traced " << designs << " designs in " << traced_ms
            << " ms (untraced " << plain_ms << " ms); phase shares of chunk "
            << "time: diffusion " << 100.0 * diffusion / chunks
            << "%, repair " << 100.0 * repair / chunks << "%, mcts "
            << 100.0 * optimize / chunks << "%; " << trace.size()
            << " spans\n";
  out.metrics = {
      {"core.fit_s", median(fits), "s"},
      {"diffusion.sample_ms", diffusion / n, "ms/design"},
      {"core.repair_ms", repair / n, "ms/design"},
      {"mcts.optimize_ms", optimize / n, "ms/design"},
      {"mcts.search_self_ms", (optimize - score - observability - root) / n,
       "ms/design"},
      {"mcts.score_ms", score / n, "ms/design"},
      {"mcts.observability_ms", observability / n, "ms/design"},
      {"mcts.root_reward_ms", root / n, "ms/design"},
      {"mcts.reward_calls", calls, "count"},
      {"mcts.states_scored", states, "count"},
      {"mcts.rows_per_call", calls > 0 ? states / calls : 0.0, "rows"},
      {"service.generate_ms", service.generate_ms / n, "ms/design"},
      {"service.stall_ms", service.stall_ms / n, "ms/design"},
      {"service.group_commit_ms_mean",
       service.commits > 0
           ? service.commit_gap_ms / static_cast<double>(service.commits)
           : 0.0,
       "ms"},
      {"sink.write_ms", trace.total_ms("sink.write") / n, "ms/design"},
      {"sink.checkpoint_ms", trace.total_ms("sink.checkpoint") / n,
       "ms/design"},
      {"synth.stats_ms", trace.total_ms("synth.synthesize_stats") / n,
       "ms/design"},
      {"synth.cache_hit_rate",
       lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0,
       "fraction"},
      {"trace.coverage_pct",
       chunks > 0 ? 100.0 * (diffusion + repair + optimize) / chunks : 0.0,
       "%"},
      {"trace.overhead_pct", 100.0 * (traced_ms / plain_ms - 1.0), "%"},
  };
  return out;
}

}  // namespace e2e
