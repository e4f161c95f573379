#include "diffusion/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace syn::diffusion {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kCosineOffset = 0.008;  // s of Nichol & Dhariwal

double cosine_f(double t_over_T) {
  const double x = (t_over_T + kCosineOffset) / (1.0 + kCosineOffset) *
                   (kPi / 2.0);
  const double c = std::cos(x);
  return c * c;
}
}  // namespace

Schedule::Schedule(int steps, double noise_marginal)
    : steps_(steps), m1_(noise_marginal) {
  if (steps < 1) throw std::invalid_argument("schedule needs >= 1 step");
  if (noise_marginal <= 0.0 || noise_marginal >= 1.0) {
    throw std::invalid_argument("noise marginal must be in (0, 1)");
  }
  alpha_bar_.resize(static_cast<std::size_t>(steps) + 1);
  alpha_.resize(static_cast<std::size_t>(steps) + 1);
  const double f0 = cosine_f(0.0);
  alpha_bar_[0] = 1.0;
  for (int t = 1; t <= steps; ++t) {
    alpha_bar_[static_cast<std::size_t>(t)] =
        std::clamp(cosine_f(static_cast<double>(t) / steps) / f0, 1e-6, 1.0);
    alpha_[static_cast<std::size_t>(t)] =
        alpha_bar_[static_cast<std::size_t>(t)] /
        alpha_bar_[static_cast<std::size_t>(t - 1)];
  }
  // In ratio()'s index order; t = 0 has no reverse step.
  ratio_.assign(4, 0.0);
  for (int t = 1; t <= steps; ++t) {
    for (const bool at : {false, true}) {
      for (const bool x0 : {false, true}) {
        // q(A_{t-1}=s | A_t=at, A_0=x0) ∝ q_step(t, s, at) * q_bar(t-1, x0, s)
        const double w1 = q_step(t, true, at) * q_bar(t - 1, x0, true);
        const double w0 = q_step(t, false, at) * q_bar(t - 1, x0, false);
        const double denom = w0 + w1;
        // A zero denominator adds nothing to the posterior; a 0 ratio adds
        // p_x0 * 0 = +0, which leaves the sum's bits unchanged.
        ratio_.push_back(denom > 0.0 ? w1 / denom : 0.0);
      }
    }
  }
}

double Schedule::q_t_given_0(int t, bool a0) const {
  const double ab = alpha_bar(t);
  return ab * (a0 ? 1.0 : 0.0) + (1.0 - ab) * m1_;
}

double Schedule::q_step(int t, bool s, bool at) const {
  const double a = alpha(t);
  const double m_at = at ? m1_ : 1.0 - m1_;
  return a * (s == at ? 1.0 : 0.0) + (1.0 - a) * m_at;
}

double Schedule::q_bar(int t, bool x0, bool s) const {
  const double ab = alpha_bar(t);
  const double m_s = s ? m1_ : 1.0 - m1_;
  return ab * (x0 == s ? 1.0 : 0.0) + (1.0 - ab) * m_s;
}

double Schedule::posterior(int t, bool at, double p0_hat) const {
  p0_hat = std::clamp(p0_hat, 0.0, 1.0);
  double result = 0.0;
  for (const bool x0 : {false, true}) {
    const double p_x0 = x0 ? p0_hat : 1.0 - p0_hat;
    if (p_x0 <= 0.0) continue;
    result += p_x0 * ratio(t, at, x0);
  }
  return std::clamp(result, 0.0, 1.0);
}

Schedule::PosteriorRange Schedule::posterior_range(int t, bool at) const {
  constexpr double kSlack = 1e-12;
  const double r0 = ratio(t, at, false);
  const double r1 = ratio(t, at, true);
  return {std::min(r0, r1) * (1.0 - kSlack),
          std::max(r0, r1) * (1.0 + kSlack)};
}

}  // namespace syn::diffusion
