// Standard layers built on the autograd tensor: Linear, MLP, GRU cell.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace syn::nn {

/// Anything holding trainable tensors.
class Module {
 public:
  virtual ~Module() = default;
  /// Appends all trainable parameters (used by optimizers).
  virtual void collect_parameters(std::vector<Tensor>& out) const = 0;

  [[nodiscard]] std::vector<Tensor> parameters() const {
    std::vector<Tensor> out;
    collect_parameters(out);
    return out;
  }
};

/// y = x W + b.
class Linear : public Module {
 public:
  Linear() = default;
  Linear(std::size_t in, std::size_t out, util::Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  void collect_parameters(std::vector<Tensor>& out) const override;

  /// Raw parameter values, for fused inference kernels that re-implement
  /// forward() arithmetic without materializing intermediate tensors.
  [[nodiscard]] const Matrix& weight_value() const { return weight_.value(); }
  [[nodiscard]] const Matrix& bias_value() const { return bias_.value(); }

 private:
  Tensor weight_;  // in x out
  Tensor bias_;    // 1 x out
};

enum class Activation { kRelu, kTanh, kSigmoid, kNone };

/// Multilayer perceptron with a chosen hidden activation; output is linear.
class Mlp : public Module {
 public:
  Mlp() = default;
  Mlp(const std::vector<std::size_t>& dims, util::Rng& rng,
      Activation hidden = Activation::kRelu);

  [[nodiscard]] Tensor forward(const Tensor& x) const;
  void collect_parameters(std::vector<Tensor>& out) const override;

  /// Layer list for fused inference kernels (see Linear::weight_value).
  [[nodiscard]] const std::vector<Linear>& layers() const { return layers_; }
  [[nodiscard]] Activation hidden_activation() const { return hidden_; }

 private:
  std::vector<Linear> layers_;
  Activation hidden_ = Activation::kRelu;
};

/// Single GRU cell: h' = (1-z) ⊙ n + z ⊙ h (batch-first rows).
class GruCell : public Module {
 public:
  GruCell() = default;
  GruCell(std::size_t input, std::size_t hidden, util::Rng& rng);

  /// x: B x input, h: B x hidden -> B x hidden.
  [[nodiscard]] Tensor forward(const Tensor& x, const Tensor& h) const;
  void collect_parameters(std::vector<Tensor>& out) const override;

  /// Per-gate affine layers, for fused inference kernels that pack the
  /// weights structure-of-arrays (see Linear::weight_value).
  [[nodiscard]] const Linear& xz() const { return xz_; }
  [[nodiscard]] const Linear& hz() const { return hz_; }
  [[nodiscard]] const Linear& xr() const { return xr_; }
  [[nodiscard]] const Linear& hr() const { return hr_; }
  [[nodiscard]] const Linear& xn() const { return xn_; }
  [[nodiscard]] const Linear& hn() const { return hn_; }

 private:
  Linear xz_, hz_, xr_, hr_, xn_, hn_;
};

/// Sinusoidal time-step embedding (1 x dim) as used to condition the
/// denoiser on the diffusion step.
Matrix timestep_encoding(int t, std::size_t dim);

}  // namespace syn::nn
