// daemon-jobs and fleet-jobs: closed-loop clients against an in-process
// server::Daemon, or an in-process fleet::Coordinator over two in-process
// daemons, all on Unix sockets named relative to the run directory (so
// the sun_path limit holds wherever the run directory lives).
//
// Each client opens one connection per job, as `synctl submit --tail`
// does: SUBMIT a graphrnn job with its own fresh output dir and seed,
// STREAM until "end", then submit the next. Every latency is taken at the
// client; per-layer numbers come from METRICS (and WORKERS) snapshots
// taken just before and just after the timed phase.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/coordinator.hpp"
#include "host_speed.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "service/dataset_sink.hpp"
#include "service/generation_service.hpp"
#include "synth/synthesizer.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace syn;
using util::Json;

namespace {

constexpr const char* kBackend = "graphrnn";
/// Jobs every run completes: scpr_mean covers exactly these, so it is
/// fixed by the seed, and p90 has well over ten samples beyond it.
constexpr std::size_t kFixedJobs = 300;
constexpr int kConnectTimeoutMs = 5'000;
/// Bound on every client receive; a job that goes silent this long fails.
constexpr int kRecvTimeoutMs = 30'000;
constexpr std::uint64_t kJobSalt = 0x10b5;

struct Shape {
  std::size_t clients = 0;
  std::size_t designs = 0;  ///< per job
};
constexpr Shape kDaemonShape{3, 16};
/// One client: with two, a job's sub-jobs queued behind the other
/// client's on the 1-slot workers, and first_record_ms_p50 moved with how
/// the two interleaved (a 14-18% spread over ten seeds, 22% between two
/// sets of them).
constexpr Shape kFleetShape{1, 32};
/// Length of one closed-loop segment between host samples.
constexpr std::chrono::milliseconds kSegment{1000};

server::JobSpec job_spec(std::uint64_t seed, std::size_t designs,
                         const fs::path& out) {
  server::JobSpec spec;
  spec.count = designs;
  spec.seed = seed;
  spec.backend = kBackend;
  spec.out = out;
  spec.fresh = true;
  return spec;
}

server::ClientConnection connect(const fs::path& socket) {
  auto conn = server::ClientConnection::connect_unix(socket, kConnectTimeoutMs);
  conn.set_recv_timeout(kRecvTimeoutMs);
  return conn;
}

/// One job as a client saw it.
struct JobSample {
  std::size_t index = 0;
  fs::path out;
  JobOutcome outcome;
  double submit_ms = 0.0;        ///< connect + SUBMIT reply
  double first_record_ms = 0.0;  ///< SUBMIT sent -> first record event
  double end_ms = 0.0;           ///< SUBMIT sent -> end event
  double tail_ms = 0.0;          ///< last record -> end event
  double slowness = 1.0;         ///< host slowness of the job's segment
  ScprSum scpr;
  std::uint64_t digest = 0;  ///< of the output (job 0 only)
};

/// Checks a finished job's output, then deletes it, so a run holds one
/// job's files at a time (in RAM on a tmpfs run directory; on a disk they
/// are gone before writeback, so no I/O trails into later runs).
void check_and_remove_output(JobSample& s) {
  try {
    s.outcome.manifest_lines = manifest_lines(s.out);
    s.outcome.parts_left = fs::exists(s.out / ".parts");
    if (s.index == 0 && fs::exists(s.out)) s.digest = dataset_digest(s.out);
    fs::remove_all(s.out);
  } catch (const std::exception& e) {
    s.outcome.state = std::string("output check error: ") + e.what();
  }
}

JobSample run_client_job(const fs::path& socket, const std::string& client,
                         std::size_t index, const server::JobSpec& spec,
                         Trace* trace) {
  JobSample s;
  s.index = index;
  s.out = spec.out;
  s.outcome.expected = spec.count;
  const auto t0 = Clock::now();
  Clock::time_point first{};
  Clock::time_point last{};
  try {
    auto conn = connect(socket);
    const std::string id = conn.submit(spec, client);
    const auto acked = Clock::now();
    s.submit_ms = ms_between(t0, acked);
    s.outcome.state = conn.stream(id, [&](const Json& event) {
      const Json* kind = event.find("event");
      if (kind == nullptr || !kind->is_string() || kind->str() != "record") {
        return;
      }
      last = Clock::now();
      if (s.outcome.records == 0) first = last;
      ++s.outcome.records;
      if (const Json* scpr = event.find("scpr")) {
        s.scpr.sum += scpr->number();
        ++s.scpr.count;
      }
    });
    const auto end = Clock::now();
    s.end_ms = ms_between(t0, end);
    s.first_record_ms =
        s.outcome.records > 0 ? ms_between(t0, first) : s.end_ms;
    s.tail_ms = s.outcome.records > 0 ? ms_between(last, end) : 0.0;
    if (trace != nullptr) {
      const std::uint64_t job = trace->record("client.job", t0, end, 0, index);
      trace->record("client.submit", t0, acked, job, index);
      if (s.outcome.records > 0) {
        trace->record("client.first_record", acked, first, job, index);
        trace->record("client.stream_tail", last, end, job, index);
      }
    }
  } catch (const std::exception& e) {
    s.outcome.state = std::string("error: ") + e.what();
    s.end_ms = ms_between(t0, Clock::now());
  }
  check_and_remove_output(s);
  return s;
}

struct Timed {
  std::vector<JobSample> samples;
  HostScaled work;
  std::vector<double> slowness;  ///< one per segment
  /// VmHWM when the kFixedJobs-th job ended: the same work sets it
  /// whatever the throughput.
  double prefix_hwm_mb = 0.0;
};

/// One segment of the closed loop: each client runs jobs back to back and
/// starts none after `segment_end`; returns once every client's last job
/// has ended. Job j is seeded from (workload seed, j) and writes to
/// jobs/j<j>; `next` numbers jobs across segments.
void run_segment(const RunArgs& args, const fs::path& socket, Shape shape,
                 Clock::time_point segment_end, Trace* trace,
                 std::atomic<std::size_t>& next, Timed& t) {
  std::mutex mutex;
  std::vector<std::jthread> clients;  // joined when this function returns
  for (std::size_t c = 0; c < shape.clients; ++c) {
    clients.emplace_back([&, c] {
      const std::string client = "client" + std::to_string(c);
      while (Clock::now() < segment_end) {
        const std::size_t j = next.fetch_add(1);
        const server::JobSpec spec =
            job_spec(derive_seed(args.seed, kJobSalt, j), shape.designs,
                     "jobs/j" + std::to_string(j));
        JobSample s = run_client_job(socket, client, j, spec, trace);
        const std::lock_guard<std::mutex> lock(mutex);
        t.samples.push_back(std::move(s));
        if (t.samples.size() == kFixedJobs) {
          t.prefix_hwm_mb = proc_status_mb("VmHWM");
        }
      }
    });
  }
}

/// Runs `spec` again straight through GenerationService + ShardedDiskSink
/// with the backend and job wiring the daemon uses, into `dir`.
void regenerate(const server::JobSpec& spec, const fs::path& dir) {
  const server::FittedBackend backend = server::make_default_backend(kBackend);
  service::ShardedDiskSink sink({.dir = dir,
                                 .seed = spec.seed,
                                 .shard_size = spec.shard_size,
                                 .fresh = true,
                                 .with_synth_stats = spec.synth_stats,
                                 .log = nullptr});
  service::GenerationService svc(
      *backend.model, {.batch = {.batch = spec.batch, .threads = spec.threads},
                       .queue_capacity = spec.queue});
  svc.run({.count = spec.count, .seed = spec.seed, .attrs = backend.attrs},
          sink);
}

/// Output checks: each job ended done, streamed and left exactly `count`
/// records and no .parts dir (checked as it finished); job 0, regenerated
/// directly, matches byte for byte. Each job is one operation.
Tally check_jobs(std::vector<JobSample>& samples, const RunArgs& args,
                 std::size_t designs) {
  if (!samples.empty() && samples.front().index == 0) {
    JobSample& first = samples.front();
    regenerate(
        job_spec(derive_seed(args.seed, kJobSalt, 0), designs, first.out),
        "regen");
    first.outcome.digest_ok = dataset_digest("regen") == first.digest;
  }
  Tally tally;
  for (const JobSample& s : samples) {
    const bool ok = !job_failed(s.outcome);
    if (!ok) {
      std::cerr << "job " << s.index << " failed: state=" << s.outcome.state
                << " records=" << s.outcome.records
                << " manifest_lines=" << s.outcome.manifest_lines
                << " parts_left=" << s.outcome.parts_left
                << " digest_ok=" << s.outcome.digest_ok << "\n";
    }
    tally.add(ok);
  }
  if (samples.empty() || samples.front().index != 0) tally.add(false);
  return tally;
}

/// Submits one job and streams it to the end (set-up warm-ups).
void warm_up(const fs::path& socket, const std::string& out,
             std::size_t designs, std::uint64_t seed) {
  const JobSample s = run_client_job(socket, "warmup",
                                     0, job_spec(seed, designs, out), nullptr);
  if (s.outcome.state != "done") {
    throw std::runtime_error("warm-up job on " + socket.string() + " ended " +
                             s.outcome.state);
  }
}

// ---- METRICS snapshot arithmetic --------------------------------------

const Json& section(const Json& metrics, const char* name) {
  static const Json kEmpty = Json(util::JsonObject{});
  const Json* s = metrics.find(name);
  return s != nullptr ? *s : kEmpty;
}

double counter(const Json& metrics, const char* name) {
  const Json* v = section(metrics, "counters").find(name);
  return v != nullptr ? v->number() : 0.0;
}

double gauge(const Json& metrics, const char* name) {
  const Json* v = section(metrics, "gauges").find(name);
  return v != nullptr ? v->number() : 0.0;
}

struct TrackSum {
  double sum = 0.0;
  double count = 0.0;
};

TrackSum track(const Json& metrics, const std::string& name) {
  const Json* t = section(metrics, "latency").find(name);
  if (t == nullptr) return {};
  const double count = t->at("count").number();
  return {t->at("mean").number() * count, count};
}

/// A latency track's sum and count over the samples observed between two
/// snapshots. Its exact mean is sum / count: the tracks' binned
/// percentiles are far coarser than graphrnn's millisecond jobs.
TrackSum track_delta(const Json& before, const Json& after,
                     const std::string& name) {
  const TrackSum b = track(before, name);
  const TrackSum a = track(after, name);
  return {a.sum - b.sum, a.count - b.count};
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Json fetch_metrics(const fs::path& socket) { return connect(socket).metrics(); }

/// Worker-side (server + service) layer numbers over the timed phase,
/// summed across the daemons whose before/after snapshots are given.
void add_worker_layers(const std::vector<Json>& before,
                       const std::vector<Json>& after,
                       std::vector<Metric>& metrics) {
  TrackSum dispatch;
  TrackSum body;
  TrackSum commit;
  TrackSum generate;
  double stall_ms = 0.0;
  double designs = 0.0;
  double records = 0.0;
  double expired = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto add = [&](TrackSum& into, const std::string& name) {
      const TrackSum d = track_delta(before[i], after[i], name);
      into.sum += d.sum;
      into.count += d.count;
    };
    add(dispatch, "dispatch_ms");
    add(body, "job_ms");
    add(commit, "group_commit_ms");
    add(generate, std::string("generate_") + kBackend + "_ms");
    const auto delta = [&](double (*read)(const Json&, const char*),
                           const char* name) {
      return read(after[i], name) - read(before[i], name);
    };
    stall_ms += delta(gauge, "sink_stall_ms");
    designs += delta(counter, "designs_committed");
    records += delta(counter, "records_streamed");
    expired += delta(counter, "jobs_expired");
  }
  metrics.insert(
      metrics.end(),
      {{"server.dispatch_wait_ms_mean", ratio(dispatch.sum, dispatch.count),
        "ms"},
       {"server.job_body_ms_mean", ratio(body.sum, body.count), "ms"},
       {"server.records_streamed", records, "count"},
       {"server.jobs_expired", expired, "count"},
       {"service.generate_ms", ratio(generate.sum, designs), "ms/design"},
       {"service.group_commit_ms_mean", ratio(commit.sum, commit.count), "ms"},
       {"service.stall_ms", ratio(stall_ms, designs), "ms/design"}});
}

/// Closed loop in segments of kSegment until the deadline, and until at
/// least kFixedJobs jobs ran. Between segments, with every client idle,
/// the host is sampled; each job carries its segment's slowness.
Timed run_timed(const RunArgs& args, const fs::path& socket, Shape shape,
                Trace* trace, SlownessTrack& host) {
  Timed t;
  std::atomic<std::size_t> next{0};
  const auto deadline = Clock::now() + std::chrono::seconds(args.seconds);
  while (next.load() < kFixedJobs || Clock::now() < deadline) {
    const std::size_t first = t.samples.size();
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    run_segment(args, socket, shape, start + kSegment, trace, next, t);
    const double wall_s = ms_between(start, Clock::now()) / 1000.0;
    const double cpu_s = process_cpu_s() - cpu0;
    const double s = host.after_unit();
    t.work.add(wall_s, cpu_s, s);
    t.slowness.push_back(s);
    for (std::size_t i = first; i < t.samples.size(); ++i) {
      t.samples[i].slowness = s;
    }
  }
  std::sort(t.samples.begin(), t.samples.end(),
            [](const JobSample& a, const JobSample& b) {
              return a.index < b.index;
            });
  return t;
}

std::vector<double> field(const std::vector<JobSample>& samples,
                          double JobSample::*member) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const JobSample& s : samples) out.push_back(s.*member);
  return out;
}

/// Each job's `member` time divided by its segment's host slowness.
std::vector<double> scaled_field(const std::vector<JobSample>& samples,
                                 double JobSample::*member) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const JobSample& s : samples) out.push_back(s.*member / s.slowness);
  return out;
}

/// The nine end-to-end metrics of a closed-loop run.
void emit_end_to_end(RunOutput& out, const Timed& t,
                     const std::vector<double>& setups,
                     const std::vector<double>& raw_setups) {
  std::size_t designs = 0;
  ScprSum scpr;
  for (const JobSample& s : t.samples) {
    if (s.outcome.state == "done") designs += s.outcome.records;
    if (s.index < kFixedJobs) {
      scpr.sum += s.scpr.sum;
      scpr.count += s.scpr.count;
    }
  }
  const std::vector<double> job_ms =
      scaled_field(t.samples, &JobSample::end_ms);
  const TailPercentile tail = tail_percentile(job_ms);
  std::cout << "jobs " << t.samples.size() << "; job_ms tail p"
            << tail.q * 100 << " = " << tail.value << " ms (n="
            << tail.samples << ")\n";
  const double n = static_cast<double>(std::max<std::size_t>(designs, 1));
  print_host(t.slowness, t.work, n, raw_setups);
  print_setups(setups);
  out.metrics = {
      {"designs_per_s", static_cast<double>(designs) / t.work.scaled_wall_s,
       "designs/s"},
      {"setup_s", median(setups), "s"},
      {"cpu_ms_per_design", t.work.scaled_cpu_s * 1000.0 / n, "ms"},
      {"peak_rss_mb", t.prefix_hwm_mb, "MB"},
      {"job_ms_p50", median(job_ms), "ms"},
      {"job_ms_p90", quantile(job_ms, 0.9), "ms"},
      {"first_record_ms_p50",
       median(scaled_field(t.samples, &JobSample::first_record_ms)), "ms"},
      {"success_rate", out.tally.success_rate(), "fraction"},
      {"scpr_mean", scpr.mean(), "ratio"},
  };
}

double synth_hit_rate(const synth::SynthCacheStats& before,
                      const synth::SynthCacheStats& after) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

server::DaemonConfig daemon_config(const std::string& socket,
                                   std::size_t slots) {
  server::DaemonConfig config;
  config.socket_path = socket;
  config.node_id = socket;
  config.max_concurrent = slots;
  return config;
}

void write_trace(const Trace& trace, const RunArgs& args) {
  if (!args.trace_out.empty()) trace.write_chrome_json(args.trace_out);
}

}  // namespace

RunOutput run_daemon_jobs(const RunArgs& args) {
  // Set-up: start a daemon (2 job slots, default GC and quotas) and run
  // one warm-up job, which fits the backend lazily. The last daemon
  // serves the timed phase.
  SlownessTrack host;
  std::vector<double> raw_setups;
  std::vector<double> setups;
  std::unique_ptr<server::Daemon> daemon;
  std::string socket;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    synth::reset_synthesis_cache();
    socket = "d" + std::to_string(i) + ".sock";
    const auto start = Clock::now();
    daemon = std::make_unique<server::Daemon>(daemon_config(socket, 2));
    daemon->start();
    warm_up(socket, "warmup/d" + std::to_string(i), kDaemonShape.designs,
            derive_seed(args.seed, kJobSalt, ~0ull));
    raw_setups.push_back(ms_between(start, Clock::now()) / 1000.0);
    setups.push_back(raw_setups.back() / host.after_unit());
  }

  std::unique_ptr<Trace> trace;
  if (args.trace) trace = std::make_unique<Trace>(Clock::now());
  const Json before = fetch_metrics(socket);
  const synth::SynthCacheStats cache_before = synth::synthesis_cache_stats();
  Timed t = run_timed(args, socket, kDaemonShape, trace.get(), host);
  const Json after = fetch_metrics(socket);
  const synth::SynthCacheStats cache_after = synth::synthesis_cache_stats();
  const double vm_peak_mb = proc_status_mb("VmPeak");
  daemon.reset();

  RunOutput out;
  out.tally = check_jobs(t.samples, args, kDaemonShape.designs);
  if (!args.trace) {
    emit_end_to_end(out, t, setups, raw_setups);
    return out;
  }
  out.metrics = {
      {"server.submit_ms_p50", median(field(t.samples, &JobSample::submit_ms)),
       "ms"},
      {"server.stream_tail_ms_p50",
       median(field(t.samples, &JobSample::tail_ms)), "ms"},
      {"server.vm_peak_mb", vm_peak_mb, "MB"},
      {"synth.cache_hit_rate", synth_hit_rate(cache_before, cache_after),
       "fraction"},
  };
  add_worker_layers({before}, {after}, out.metrics);
  write_trace(*trace, args);
  return out;
}

RunOutput run_fleet_jobs(const RunArgs& args) {
  // Set-up: two 1-slot worker daemons and a coordinator over them, then
  // one warm-up fleet job, whose two halves fit each worker's backend.
  SlownessTrack host;
  std::vector<double> raw_setups;
  std::vector<double> setups;
  // Declared before the coordinator, so any exit stops it first.
  std::vector<std::unique_ptr<server::Daemon>> workers;
  std::unique_ptr<fleet::Coordinator> coordinator;
  std::string socket;
  std::vector<std::string> worker_sockets;
  for (int i = 0; i < kSetups; ++i) {
    coordinator.reset();
    workers.clear();
    synth::reset_synthesis_cache();
    const std::string tag = std::to_string(i);
    socket = "c" + tag + ".sock";
    worker_sockets = {"w" + tag + "a.sock", "w" + tag + "b.sock"};
    const auto start = Clock::now();
    for (const std::string& w : worker_sockets) {
      workers.push_back(std::make_unique<server::Daemon>(daemon_config(w, 1)));
      workers.back()->start();
    }
    fleet::CoordinatorConfig config;
    config.socket_path = socket;
    config.workers = worker_sockets;
    config.node_id = socket;
    coordinator = std::make_unique<fleet::Coordinator>(config);
    coordinator->start();
    warm_up(socket, "warmup/c" + tag, kFleetShape.designs,
            derive_seed(args.seed, kJobSalt, ~0ull));
    raw_setups.push_back(ms_between(start, Clock::now()) / 1000.0);
    setups.push_back(raw_setups.back() / host.after_unit());
  }

  const auto snapshot_workers = [&] {
    std::vector<Json> snapshots;
    for (const std::string& w : worker_sockets) {
      snapshots.push_back(fetch_metrics(w));
    }
    return snapshots;
  };
  const auto dispatched = [&] {
    std::vector<double> counts;
    const Json table = connect(socket).workers();
    for (const Json& w : table.array()) {
      counts.push_back(w.at("dispatched").number());
    }
    return counts;
  };

  std::unique_ptr<Trace> trace;
  if (args.trace) trace = std::make_unique<Trace>(Clock::now());
  const Json before = fetch_metrics(socket);
  const std::vector<Json> workers_before = snapshot_workers();
  const std::vector<double> dispatched_before = dispatched();
  const synth::SynthCacheStats cache_before = synth::synthesis_cache_stats();
  Timed t = run_timed(args, socket, kFleetShape, trace.get(), host);
  const Json after = fetch_metrics(socket);
  const std::vector<Json> workers_after = snapshot_workers();
  const std::vector<double> dispatched_after = dispatched();
  const synth::SynthCacheStats cache_after = synth::synthesis_cache_stats();
  const double vm_peak_mb = proc_status_mb("VmPeak");
  coordinator.reset();
  workers.clear();

  RunOutput out;
  out.tally = check_jobs(t.samples, args, kFleetShape.designs);
  if (!args.trace) {
    emit_end_to_end(out, t, setups, raw_setups);
    return out;
  }
  const TrackSum subjob = track_delta(before, after, "fleet_subjob_ms");
  double most = 0.0;
  double least = 0.0;
  for (std::size_t i = 0; i < dispatched_after.size(); ++i) {
    const double d = dispatched_after[i] - dispatched_before[i];
    most = i == 0 ? d : std::max(most, d);
    least = i == 0 ? d : std::min(least, d);
  }
  out.metrics = {
      {"fleet.submit_ms_p50", median(field(t.samples, &JobSample::submit_ms)),
       "ms"},
      {"fleet.subjob_ms_mean", ratio(subjob.sum, subjob.count), "ms"},
      {"fleet.merge_tail_ms_p50",
       median(field(t.samples, &JobSample::tail_ms)), "ms"},
      {"fleet.records_forwarded",
       counter(after, "records_forwarded") -
           counter(before, "records_forwarded"),
       "count"},
      {"fleet.redispatches",
       counter(after, "fleet_redispatches") -
           counter(before, "fleet_redispatches"),
       "count"},
      {"fleet.worker_skew", least > 0 ? most / least : 0.0, "ratio"},
      {"server.vm_peak_mb", vm_peak_mb, "MB"},
      {"synth.cache_hit_rate", synth_hit_rate(cache_before, cache_after),
       "fraction"},
  };
  add_worker_layers(workers_before, workers_after, out.metrics);
  write_trace(*trace, args);
  return out;
}

}  // namespace e2e
