// Discrete (2-state) edge diffusion schedule — paper §IV-A/B.
//
// Forward process: each adjacency bit follows a 2-state Markov chain with
// marginal-preserving transition matrices
//     Q_t = alpha_t * I + (1 - alpha_t) * 1 m^T,
// where m = (1 - p_noise, p_noise) is the stationary edge marginal
// (estimated from the training corpus edge density). alpha-bar follows the
// cosine schedule of Nichol & Dhariwal. The posterior used in reverse
// sampling is the standard D3PM x0-parameterized posterior specialized to
// two states, exposed here in closed form, together with the interval
// that posterior spans over every clean-bit prediction: reverse sampling
// reads the denoiser only for draws that interval leaves open.
#pragma once

#include <cstddef>
#include <vector>

namespace syn::diffusion {

class Schedule {
 public:
  /// steps = T (paper uses 9); noise_marginal = stationary edge
  /// probability p_noise.
  Schedule(int steps, double noise_marginal);

  [[nodiscard]] int steps() const { return steps_; }
  [[nodiscard]] double noise_marginal() const { return m1_; }

  /// alpha_t (per-step keep probability), t in [1, T].
  [[nodiscard]] double alpha(int t) const { return alpha_[static_cast<std::size_t>(t)]; }
  /// alpha-bar_t (cumulative), t in [0, T]; alpha_bar(0) = 1.
  [[nodiscard]] double alpha_bar(int t) const {
    return alpha_bar_[static_cast<std::size_t>(t)];
  }

  /// q(A_t = 1 | A_0 = a0): forward corruption marginal.
  [[nodiscard]] double q_t_given_0(int t, bool a0) const;

  /// p(A_{t-1} = 1 | A_t = at, p(A_0=1) = p0_hat): the x0-parameterized
  /// reverse posterior, marginalized over the predicted clean bit. p0_hat
  /// is clamped to [0, 1]. Reverse sampling calls this once per pair per
  /// step, so the per-(t, at, x0) ratios are precomputed.
  [[nodiscard]] double posterior(int t, bool at, double p0_hat) const;

  /// Bounds on posterior(t, at, p0_hat) over every p0_hat in [0, 1].
  struct PosteriorRange {
    double lo;
    double hi;
  };
  /// The posterior is a convex combination of the two ratios
  /// q(A_{t-1} = 1 | A_t = at, A_0 = x0), so it lies between them; the
  /// bounds are widened by a relative 1e-12, which dominates the few-ulp
  /// rounding of posterior()'s products, sum and clamp. A uniform below
  /// lo draws an edge and one at or above hi draws none, whatever the
  /// denoiser predicts. At t = 1 the ratios are 0 and 1 (A_0 = x0), so
  /// the range covers every uniform.
  [[nodiscard]] PosteriorRange posterior_range(int t, bool at) const;

 private:
  /// q(A_t = at | A_{t-1} = s) single-step transition probability.
  [[nodiscard]] double q_step(int t, bool s, bool at) const;
  /// q-bar_{t}(x0 -> s): t-step transition from x0 to s.
  [[nodiscard]] double q_bar(int t, bool x0, bool s) const;
  /// q(A_{t-1} = 1 | A_t = at, A_0 = x0).
  [[nodiscard]] double ratio(int t, bool at, bool x0) const {
    return ratio_[static_cast<std::size_t>(t) * 4 + (at ? 2 : 0) +
                  (x0 ? 1 : 0)];
  }

  int steps_;
  double m1_;  // stationary P(edge)
  std::vector<double> alpha_;      // index 1..T
  std::vector<double> alpha_bar_;  // index 0..T
  std::vector<double> ratio_;      // ratio(t, at, x0) for t in 1..T
};

}  // namespace syn::diffusion
