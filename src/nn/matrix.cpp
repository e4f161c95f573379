#include "nn/matrix.hpp"

#include <cstddef>

namespace syn::nn {

// Model fitting runs the three training-path products below. How fast
// their inner loops run depends on where each function sits relative to a
// 64-byte boundary, so each starts on one: when an unrelated change moved
// them from offset 0 to 32, the syncircuit backend's fit took ~14% longer.

[[gnu::aligned(64)]] Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float av = a.at(i, k);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += av * b.at(k, j);
      }
    }
  }
  return c;
}

[[gnu::aligned(64)]] Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float av = a.at(k, i);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += av * b.at(k, j);
      }
    }
  }
  return c;
}

[[gnu::aligned(64)]] Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(j, k);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

}  // namespace syn::nn
