#include "dp/calibration.hpp"

#include <cmath>
#include <stdexcept>

namespace pdsl::dp {

namespace {
void validate(const Theorem1Params& p) {
  if (p.epsilon <= 0.0) throw std::invalid_argument("theorem1: epsilon must be positive");
  if (p.delta <= 0.0 || p.delta >= 1.0) throw std::invalid_argument("theorem1: delta in (0,1)");
  if (p.clip <= 0.0) throw std::invalid_argument("theorem1: clip must be positive");
  if (p.phi_hat_min <= 0.0 || p.phi_hat_min > 1.0) {
    throw std::invalid_argument("theorem1: phi_hat_min in (0,1]");
  }
}
}  // namespace

double theorem1_sigma_for_agent(const graph::Metropolis& w, std::size_t agent,
                                const Theorem1Params& p) {
  validate(p);
  if (agent >= w.size()) throw std::out_of_range("theorem1_sigma_for_agent: bad agent");
  const double w_min = w.min_positive_weight();
  double inv_sum = 0.0;     // sum_j 1/w_ij over the closed neighborhood
  double inv_sq_sum = 0.0;  // sum_j w_ij^{-2}
  for (std::size_t j : w.support(agent)) {
    const double wij = w(agent, j);
    inv_sum += 1.0 / wij;
    inv_sq_sum += 1.0 / (wij * wij);
  }
  const double numerator =
      2.0 * p.clip * (1.0 / w_min + inv_sum) * std::sqrt(2.0 * std::log(1.25 / p.delta));
  const double denominator = p.phi_hat_min * p.epsilon * std::sqrt(inv_sq_sum);
  return numerator / denominator;
}

double theorem1_sigma(const graph::Metropolis& w, const Theorem1Params& p) {
  double mx = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    mx = std::max(mx, theorem1_sigma_for_agent(w, i, p));
  }
  return mx;
}

double theorem1_sensitivity(const graph::Metropolis& w, double clip) {
  if (clip <= 0.0) throw std::invalid_argument("theorem1_sensitivity: clip must be positive");
  const double w_min = w.min_positive_weight();
  double worst = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    double inv_sum = 0.0;
    for (std::size_t j : w.support(i)) inv_sum += 1.0 / w(i, j);
    worst = std::max(worst, 2.0 * clip / w_min + 2.0 * clip * inv_sum);
  }
  return worst;
}

}  // namespace pdsl::dp
