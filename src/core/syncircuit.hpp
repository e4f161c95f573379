// SynCircuit — the paper's three-phase synthetic circuit generator
// (§III): P(G) -> G_ini -> G_val -> G_opt.
//
//   Phase 1  diffusion sampling of an initial adjacency + edge
//            probabilities (or a random initialization for the
//            "SynCircuit w/o diff" ablation of Table II);
//   Phase 2  probability-guided repair to a constraint-satisfying G_val;
//   Phase 3  MCTS redundancy optimization to G_opt (skippable for the
//            "SynCircuit w/o opt" ablation of Table III).
//
// run_phases is the one per-design body: generate() returns its G_opt,
// and generate_batch is GeneratorModel's default, one generate() per item.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/postprocess.hpp"
#include "diffusion/model.hpp"
#include "mcts/discriminator.hpp"
#include "mcts/mcts.hpp"

namespace syn::core {

struct SynCircuitConfig {
  diffusion::DiffusionConfig diffusion;
  /// Phase 1 ablation: false replaces the diffusion sample with a random
  /// adjacency of corpus density and uniform edge probabilities.
  bool use_diffusion = true;
  /// Phase 3 ablation: false stops at G_val.
  bool optimize = true;
  mcts::MctsConfig mcts;
  /// true = learned PCS discriminator as MCTS reward (paper's speed-up);
  /// false = exact synthesis oracle.
  bool use_discriminator = true;
  std::uint64_t seed = 1;
};

class SynCircuitGenerator : public GeneratorModel {
 public:
  explicit SynCircuitGenerator(SynCircuitConfig config);

  void fit(const std::vector<graph::Graph>& corpus) override;
  /// Returns run_phases(attrs, rng).gopt, named "syncircuit".
  graph::Graph generate(const graph::NodeAttrs& attrs,
                        util::Rng& rng) override;
  [[nodiscard]] std::string name() const override;

  /// All three phase outputs, for the experiments that inspect
  /// intermediate stages (Fig 4 compares G_val with G_opt). Phase 1 draws
  /// one chain through DiffusionModel::sample_batch (the fused inference
  /// path); Phases 2–3 continue on the same rng.
  struct Phases {
    graph::AdjacencyMatrix gini;
    graph::Graph gval;
    graph::Graph gopt;  // == gval when optimization is disabled
    RepairStats repair;
  };
  [[nodiscard]] Phases run_phases(const graph::NodeAttrs& attrs,
                                  util::Rng& rng);

  [[nodiscard]] const AttrSampler& attr_sampler() const { return attrs_; }
  [[nodiscard]] const diffusion::DiffusionModel& diffusion_model() const {
    return diffusion_;
  }
  [[nodiscard]] const mcts::PcsDiscriminator& discriminator() const {
    return discriminator_;
  }
  [[nodiscard]] bool fitted() const { return fitted_; }

 private:
  [[nodiscard]] mcts::Reward reward() const;

  SynCircuitConfig config_;
  util::Rng rng_;
  diffusion::DiffusionModel diffusion_;
  AttrSampler attrs_;
  mcts::PcsDiscriminator discriminator_;
  double corpus_density_ = 0.02;  // for the w/o-diff random initialization
  bool fitted_ = false;
};

}  // namespace syn::core
