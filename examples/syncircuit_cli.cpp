// Command-line front end for the library — the interface a downstream
// user scripting dataset generation would drive.
//
//   syncircuit_cli gen   [count] [nodes] [seed]   generate Verilog designs
//       [--backend=NAME]   generator backend (syncircuit, graphrnn, dvae,
//                          graphmaker, sparsedigress — via core registry)
//   syncircuit_cli stats <file.v>                 structural statistics
//   syncircuit_cli synth <file.v>                 synthesis + timing report
//   syncircuit_cli dot   <file.v>                 Graphviz DOT to stdout
//   syncircuit_cli corpus                         dump the built-in corpus
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/syncircuit.hpp"
#include "graph/export.hpp"
#include "graph/validity.hpp"
#include "rtl/generators.hpp"
#include "rtl/verilog.hpp"
#include "sta/critical_path.hpp"
#include "stats/metrics.hpp"
#include "stats/scalefree.hpp"
#include "synth/synthesizer.hpp"
#include "util/table.hpp"

namespace {

using namespace syn;

graph::Graph load_verilog(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return rtl::from_verilog(buffer.str());
}

/// `backend` is any name the core registry knows.
int cmd_gen(int count, std::size_t nodes, std::uint64_t seed,
            const std::string& backend) {
  core::BackendConfig config;
  config.seed = seed;
  config.syncircuit.diffusion.steps = 6;
  config.syncircuit.diffusion.denoiser = {.mpnn_layers = 3, .hidden = 32,
                                          .time_dim = 16};
  config.syncircuit.diffusion.epochs = 10;
  config.syncircuit.mcts = {.simulations = 60, .max_depth = 10,
                            .actions_per_state = 10, .max_registers = 8};
  const auto gen = core::make_generator(backend, config);
  std::cout << "training " << gen->name()
            << " on the built-in corpus...\n";
  const auto corpus = rtl::corpus_graphs({.seed = 1});
  gen->fit(corpus);
  core::AttrSampler sampler;
  sampler.fit(corpus);
  util::Rng rng(seed ^ 0xc11);
  std::filesystem::create_directories("out");
  for (int i = 0; i < count; ++i) {
    graph::Graph g = gen->generate(sampler.sample(nodes, rng), rng);
    g.set_name("syn_" + std::to_string(seed) + "_" + std::to_string(i));
    const auto path = "out/" + g.name() + ".v";
    std::ofstream(path) << rtl::to_verilog(g);
    std::cout << path << " (" << g.num_nodes() << " nodes, "
              << g.num_edges() << " edges)\n";
  }
  return 0;
}

int cmd_stats(const std::string& path) {
  const graph::Graph g = load_verilog(path);
  const auto report = graph::validate(g);
  std::cout << "design " << g.name() << ": " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges, "
            << (report.ok() ? "valid" : "INVALID") << "\n";
  const auto degree_fit = stats::degree_power_law(g);
  std::cout << "out-degree power law: alpha=" << degree_fit.alpha
            << " (KS " << degree_fit.ks_distance << ")\n"
            << "triangles: " << stats::triangle_count(g) << "\n"
            << "homophily h(A,Y): " << stats::homophily(g, false) << "\n"
            << "homophily h(A2,Y): " << stats::homophily(g, true) << "\n";
  return report.ok() ? 0 : 2;
}

int cmd_synth(const std::string& path) {
  const graph::Graph g = load_verilog(path);
  const auto result = synth::synthesize(g);
  std::cout << "gates: " << result.stats.gates_elaborated << " -> "
            << result.stats.gates_final << "\n"
            << "area: " << result.stats.area << " um^2\n"
            << "sequential cells: " << result.stats.seq_cells << " (SCPR "
            << static_cast<int>(result.stats.scpr() * 100) << "%)\n"
            << "PCS: " << result.stats.pcs() << "\n";
  const sta::TimingOptions timing{.clock_period_ns = 1.0};
  const auto report = sta::analyze(result.netlist, timing);
  std::cout << "timing @ 1ns: WNS " << report.wns << ", TNS " << report.tns
            << ", violations " << report.violated_endpoints << "/"
            << report.endpoints << "\n";
  for (const auto& p : sta::worst_paths(result.netlist, timing, 1)) {
    std::cout << "critical path: " << sta::render_path(p);
  }
  return 0;
}

int cmd_dot(const std::string& path) {
  std::cout << graph::to_dot(load_verilog(path));
  return 0;
}

int cmd_corpus() {
  util::Table table({"design", "source", "nodes", "edges", "reg bits"});
  for (const auto& d : rtl::make_corpus({.seed = 1})) {
    table.add_row({d.graph.name(), d.source,
                   std::to_string(d.graph.num_nodes()),
                   std::to_string(d.graph.num_edges()),
                   std::to_string(d.graph.register_bits())});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "corpus";
  try {
    if (cmd == "gen") {
      std::string backend = "syncircuit";
      std::vector<std::string> positional;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--backend=", 0) == 0) {
          backend = arg.substr(10);
        } else if (arg.rfind("--", 0) == 0) {
          throw std::invalid_argument("unknown option " + arg);
        } else {
          positional.push_back(arg);
        }
      }
      const int count = !positional.empty() ? std::atoi(positional[0].c_str())
                                            : 3;
      const std::size_t nodes =
          positional.size() > 1
              ? static_cast<std::size_t>(std::atoi(positional[1].c_str()))
              : 60;
      const std::uint64_t seed =
          positional.size() > 2
              ? static_cast<std::uint64_t>(std::atoll(positional[2].c_str()))
              : 1;
      return cmd_gen(count, nodes, seed, backend);
    }
    if (cmd == "stats" && argc > 2) return cmd_stats(argv[2]);
    if (cmd == "synth" && argc > 2) return cmd_synth(argv[2]);
    if (cmd == "dot" && argc > 2) return cmd_dot(argv[2]);
    if (cmd == "corpus") return cmd_corpus();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: syncircuit_cli gen [count] [nodes] [seed]"
               " [--backend=NAME]\n"
               "       syncircuit_cli stats|synth|dot <file.v>\n"
               "       syncircuit_cli corpus\n"
               "backends:";
  for (const auto& name : syn::core::registered_generators()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 1;
}
