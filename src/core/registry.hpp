// Backend registry: construct any of the five generative models by
// string name, so CLIs, examples, services and tests select backends
// uniformly instead of hand-wiring constructors. The five backends are a
// fixed table; nothing registers a backend at run time.
//
// Layering note: the API lives in core (it deals only in
// core::GeneratorModel), but the implementation is compiled into
// syn_baselines — the table must construct the baseline types, and
// baselines sits above core in the dependency DAG. Anything calling
// make_generator therefore links syn::baselines (or the syn::syn
// umbrella, which every binary in this repo uses).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/generator.hpp"
#include "core/syncircuit.hpp"

namespace syn::core {

/// Cross-backend construction knobs. The zero/empty defaults mean "keep
/// the backend's own default" so one config drives all five models.
struct BackendConfig {
  /// Model seed (weight init + any training-time randomness).
  std::uint64_t seed = 1;
  /// Training epochs; <= 0 keeps the backend default.
  int epochs = 0;
  /// Hidden width of the backend's network(s); 0 keeps the default.
  std::size_t hidden = 0;
  /// Full configuration for the "syncircuit" backend (its seed field is
  /// overridden by `seed` above; epochs/hidden map onto the diffusion
  /// trainer and denoiser when set). Ignored by the four baselines.
  SynCircuitConfig syncircuit{};
};

/// Constructs one of the five backends. `name` is matched case-insensitively
/// and accepts the canonical keys ("syncircuit", "graphrnn", "dvae",
/// "graphmaker", "sparsedigress") plus the paper's display aliases
/// ("d-vae", "graphmaker-v", "sparsedigress-v"). Throws
/// std::invalid_argument for unknown names, listing what is available.
[[nodiscard]] std::unique_ptr<GeneratorModel> make_generator(
    std::string_view name, const BackendConfig& config = {});

/// Canonical names of the five backends, sorted.
[[nodiscard]] std::vector<std::string> registered_generators();

}  // namespace syn::core
