// Implementation of the core backend registry (see core/registry.hpp for
// why it is compiled into syn_baselines: the table constructs baseline
// types, which live above core in the dependency DAG).
#include "core/registry.hpp"

#include <array>
#include <cctype>
#include <stdexcept>

#include "baselines/dvae.hpp"
#include "baselines/graphmaker.hpp"
#include "baselines/graphrnn.hpp"
#include "baselines/sparsedigress.hpp"

namespace syn::core {

namespace {

std::string normalize(std::string_view name) {
  std::string key;
  key.reserve(name.size());
  for (char c : name) {
    key.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  // Display aliases: the paper writes "GraphMaker-v" / "SparseDigress-v"
  // (the -v marks the circuit-adapted variant) and "D-VAE".
  if (key == "graphmaker-v") return "graphmaker";
  if (key == "sparsedigress-v") return "sparsedigress";
  if (key == "d-vae") return "dvae";
  return key;
}

std::unique_ptr<GeneratorModel> make_syncircuit(const BackendConfig& cfg) {
  SynCircuitConfig sc = cfg.syncircuit;
  sc.seed = cfg.seed;
  if (cfg.epochs > 0) sc.diffusion.epochs = cfg.epochs;
  if (cfg.hidden > 0) sc.diffusion.denoiser.hidden = cfg.hidden;
  return std::make_unique<SynCircuitGenerator>(sc);
}

/// Every baseline config exposes the same {seed, epochs, hidden} knobs,
/// so one template maps BackendConfig onto all four model types.
template <typename Model, typename Config>
std::unique_ptr<GeneratorModel> make_baseline(const BackendConfig& cfg) {
  Config c;
  c.seed = cfg.seed;
  if (cfg.epochs > 0) c.epochs = cfg.epochs;
  if (cfg.hidden > 0) c.hidden = cfg.hidden;
  return std::make_unique<Model>(c);
}

struct Backend {
  std::string_view name;
  std::unique_ptr<GeneratorModel> (*make)(const BackendConfig&);
};

/// Sorted by name: registered_generators() and the unknown-name error
/// list the backends in this order.
constexpr std::array<Backend, 5> kBackends{{
    {"dvae", make_baseline<baselines::Dvae, baselines::DvaeConfig>},
    {"graphmaker",
     make_baseline<baselines::GraphMaker, baselines::GraphMakerConfig>},
    {"graphrnn", make_baseline<baselines::GraphRnn, baselines::GraphRnnConfig>},
    {"sparsedigress",
     make_baseline<baselines::SparseDigress, baselines::SparseDigressConfig>},
    {"syncircuit", make_syncircuit},
}};

}  // namespace

std::unique_ptr<GeneratorModel> make_generator(std::string_view name,
                                               const BackendConfig& config) {
  const std::string key = normalize(name);
  for (const Backend& backend : kBackends) {
    if (backend.name == key) return backend.make(config);
  }
  std::string known;
  for (const Backend& backend : kBackends) {
    if (!known.empty()) known += ", ";
    known += backend.name;
  }
  throw std::invalid_argument("unknown generator backend \"" +
                              std::string(name) + "\" (available: " + known +
                              ")");
}

std::vector<std::string> registered_generators() {
  std::vector<std::string> names;
  names.reserve(kBackends.size());
  for (const Backend& backend : kBackends) names.emplace_back(backend.name);
  return names;
}

}  // namespace syn::core
