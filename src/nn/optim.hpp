// Optimizers.
#pragma once

#include <vector>

#include "nn/tensor.hpp"

namespace syn::nn {

struct AdamOptions {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double clip_norm = 0.0;  // 0 = no clipping
};

/// Adam with optional gradient clipping (global L2 norm).
class Adam {
 public:
  using Options = AdamOptions;

  explicit Adam(std::vector<Tensor> params, Options options = Options());

  void zero_grad();
  void step();
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  std::vector<Tensor> params_;
  std::vector<Matrix> m_, v_;
  Options options_;
  long step_count_ = 0;
};

}  // namespace syn::nn
