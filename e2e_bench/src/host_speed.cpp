#include "host_speed.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One call of the reference: build a random digraph as adjacency lists
/// and breadth-first search it from a dozen roots, then count string keys
/// in a std::map. Graph building and traversal, small allocations and
/// branchy lookups, like the program's own hot paths; on this host its
/// time moved in proportion to a syncircuit job's as the host's speed
/// changed. Returns a checksum so the work cannot be optimised away.
std::uint64_t reference_call() {
  constexpr int kNodes = 3000;
  constexpr int kRoots = 12;
  constexpr int kKeys = 2000;
  std::uint64_t rng = 42;
  std::vector<std::vector<int>> adjacency(kNodes);
  for (std::vector<int>& out : adjacency) {
    const int degree = 1 + static_cast<int>(splitmix64(rng) % 6);
    for (int e = 0; e < degree; ++e) {
      out.push_back(static_cast<int>(splitmix64(rng) % kNodes));
    }
  }
  std::uint64_t checksum = 0;
  std::vector<int> depth(kNodes);
  std::vector<int> queue;
  queue.reserve(kNodes);
  for (int r = 0; r < kRoots; ++r) {
    std::fill(depth.begin(), depth.end(), -1);
    queue.clear();
    const int root = static_cast<int>(splitmix64(rng) % kNodes);
    depth[root] = 0;
    queue.push_back(root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int u = queue[head];
      for (const int v : adjacency[u]) {
        if (depth[v] < 0) {
          depth[v] = depth[u] + 1;
          queue.push_back(v);
        }
      }
    }
    checksum += queue.size();
  }
  std::map<std::string, int> counts;
  for (int i = 0; i < kKeys; ++i) {
    counts["k" + std::to_string(splitmix64(rng) % 5000)] += i;
  }
  return checksum + counts.size();
}

}  // namespace

double host_slowness(double budget_ms) {
  volatile std::uint64_t sink = 0;  // keeps each call's work observable
  std::vector<double> ms;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    sink = sink + reference_call();
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  } while (std::chrono::duration<double, std::milli>(Clock::now() - start)
               .count() < budget_ms);
  const auto mid = ms.begin() + static_cast<std::ptrdiff_t>(ms.size() / 2);
  std::nth_element(ms.begin(), mid, ms.end());
  return *mid / kReferenceNominalMs;
}

int pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

}  // namespace e2e
