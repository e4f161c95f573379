#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace e2e {

double quantile(std::span<const double> values, double q) {
  return values.empty() ? 0.0 : syn::util::percentile(values, q);
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

double highest_supported_quantile(std::size_t samples) {
  // Samples strictly beyond the nearest-rank position of q: n - ceil(q n).
  constexpr double kCandidates[] = {0.999, 0.99, 0.9};
  for (const double q : kCandidates) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples) - 1e-9));
    if (samples >= rank + 10) return q;
  }
  return 0.5;
}

TailPercentile tail_percentile(std::span<const double> values) {
  TailPercentile tail;
  tail.samples = values.size();
  tail.q = highest_supported_quantile(values.size());
  tail.value = quantile(values, tail.q);
  return tail;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

bool job_failed(const JobOutcome& job) {
  return job.state != "done" || job.records != job.expected ||
         job.manifest_lines != job.expected || job.parts_left ||
         !job.digest_ok;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_mix(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

std::uint64_t dataset_digest(const std::filesystem::path& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        std::filesystem::relative(entry.path(), dir).generic_string();
    if (rel == "manifest.jsonl" || entry.path().extension() == ".v") {
      files.push_back(rel);
    }
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = kFnvOffset;
  for (const std::string& rel : files) {
    fnv_mix(h, rel);
    fnv_mix(h, std::string_view("\0", 1));
    fnv_mix(h, read_file(dir / rel));
  }
  return h;
}

std::size_t manifest_lines(const std::filesystem::path& dir) {
  std::ifstream in(dir / "manifest.jsonl");
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) lines += line.empty() ? 0 : 1;
  return lines;
}

void add_manifest_scpr(const std::filesystem::path& dir, ScprSum& into) {
  std::ifstream in(dir / "manifest.jsonl");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const syn::util::Json record = syn::util::Json::parse(line);
    if (const syn::util::Json* scpr = record.find("scpr")) {
      into.sum += scpr->number();
      ++into.count;
    }
  }
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double proc_status_mb(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > field.size() &&
        line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      std::istringstream rest(line.substr(field.size() + 1));
      double kb = 0.0;
      rest >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("no " + std::string(field) +
                           " in /proc/self/status");
}

std::string filesystem_type(const std::filesystem::path& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    default: {
      std::ostringstream magic;
      magic << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
      return magic.str();
    }
  }
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t salt,
                          std::uint64_t index) {
  std::uint64_t state = workload_seed;
  std::uint64_t h = syn::util::splitmix64(state) ^ salt;
  h = syn::util::splitmix64(h) ^ index;
  return syn::util::splitmix64(h);
}

void print_host(std::span<const double> slowness, const HostScaled& work,
                double designs, std::span<const double> raw_setups) {
  const auto [lo, hi] = std::minmax_element(slowness.begin(), slowness.end());
  std::cout << "host slowness median " << median(slowness) << " (" << *lo
            << " to " << *hi << " over " << slowness.size()
            << " units); unscaled: designs_per_s "
            << designs / work.wall_s << ", cpu_ms_per_design "
            << work.cpu_s * 1000.0 / designs << ", setup_s "
            << median(raw_setups) << "\n";
}

void print_setups(std::span<const double> setups) {
  std::cout << "setups";
  for (const double s : setups) std::cout << " " << s;
  std::cout << " s\n";
}

void print_result(const std::vector<Metric>& metrics, const Tally& tally) {
  syn::util::Json values = syn::util::Json(syn::util::JsonObject{});
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name) || !valid_unit(m.unit)) {
      throw std::invalid_argument("malformed metric \"" + m.name + "\" [" +
                                  m.unit + "]");
    }
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit
              << "\n";
    syn::util::Json entry;
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    values.set(m.name, std::move(entry));
  }
  syn::util::Json result;
  result.set("correct", tally.failed == 0);
  result.set("attempted", static_cast<std::uint64_t>(tally.attempted));
  result.set("failed", static_cast<std::uint64_t>(tally.failed));
  result.set("metrics", std::move(values));
  std::cout << result.dump() << std::endl;
}

}  // namespace e2e
