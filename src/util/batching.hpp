// Shared chunking helper for every batched loop (generate_batch's pool
// tasks, the dataset service's producer groups, micro-benches): walk
// [0, total) in consecutive windows of at most `chunk` items. Centralizing
// the loop keeps the chunk arithmetic identical everywhere, which matters
// because batch boundaries must never change results — only throughput.
#pragma once

#include <algorithm>
#include <cstddef>

namespace syn::util {

/// Invokes fn(lo, n) for consecutive windows [lo, lo + n) covering
/// [0, total), each n at most max(chunk, 1). A zero/one chunk degrades to
/// per-item windows; total == 0 invokes nothing.
template <typename Fn>
void for_each_chunk(std::size_t total, std::size_t chunk, Fn&& fn) {
  const std::size_t step = std::max<std::size_t>(chunk, 1);
  for (std::size_t lo = 0; lo < total; lo += step) {
    fn(lo, std::min(step, total - lo));
  }
}

}  // namespace syn::util
