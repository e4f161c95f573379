#include "nn/layers.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

namespace syn::nn {

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng)
    : weight_(Matrix::randn(in, out, rng, std::sqrt(2.0 / static_cast<double>(in))),
              /*requires_grad=*/true),
      bias_(Matrix(1, out), /*requires_grad=*/true) {}

Tensor Linear::forward(const Tensor& x) const {
  return add(matmul(x, weight_), bias_);
}

void Linear::collect_parameters(std::vector<Tensor>& out) const {
  out.push_back(weight_);
  out.push_back(bias_);
}

Mlp::Mlp(const std::vector<std::size_t>& dims, util::Rng& rng,
         Activation hidden)
    : hidden_(hidden) {
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Tensor Mlp::forward(const Tensor& x) const {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].forward(h);
    if (i + 1 < layers_.size()) {
      switch (hidden_) {
        case Activation::kRelu: h = relu(h); break;
        case Activation::kTanh: h = tanh_t(h); break;
        case Activation::kSigmoid: h = sigmoid(h); break;
        case Activation::kNone: break;
      }
    }
  }
  return h;
}

void Mlp::collect_parameters(std::vector<Tensor>& out) const {
  for (const auto& l : layers_) l.collect_parameters(out);
}

GruCell::GruCell(std::size_t input, std::size_t hidden, util::Rng& rng)
    : xz_(input, hidden, rng),
      hz_(hidden, hidden, rng),
      xr_(input, hidden, rng),
      hr_(hidden, hidden, rng),
      xn_(input, hidden, rng),
      hn_(hidden, hidden, rng) {}

Tensor GruCell::forward(const Tensor& x, const Tensor& h) const {
  const Tensor z = sigmoid(add(xz_.forward(x), hz_.forward(h)));
  const Tensor r = sigmoid(add(xr_.forward(x), hr_.forward(h)));
  const Tensor n = tanh_t(add(xn_.forward(x), hn_.forward(mul(r, h))));
  // h' = (1 - z) ⊙ n + z ⊙ h  ==  n - z ⊙ n + z ⊙ h
  return add(sub(n, mul(z, n)), mul(z, h));
}

void GruCell::collect_parameters(std::vector<Tensor>& out) const {
  xz_.collect_parameters(out);
  hz_.collect_parameters(out);
  xr_.collect_parameters(out);
  hr_.collect_parameters(out);
  xn_.collect_parameters(out);
  hn_.collect_parameters(out);
}

Matrix timestep_encoding(int t, std::size_t dim) {
  Matrix enc(1, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    const double freq =
        std::pow(10000.0, -2.0 * static_cast<double>(i / 2) /
                              static_cast<double>(dim));
    const double angle = static_cast<double>(t) * freq;
    enc[i] = static_cast<float>(i % 2 == 0 ? std::sin(angle)
                                           : std::cos(angle));
  }
  return enc;
}

}  // namespace syn::nn
