#include "dp/mechanism.hpp"

#include <cmath>
#include <stdexcept>

#include "common/vec_math.hpp"

namespace pdsl::dp {

double clip_l2(std::vector<float>& g, double threshold) {
  if (threshold <= 0.0) throw std::invalid_argument("clip_l2: threshold must be positive");
  const double norm = l2_norm(g);
  const double denom = std::max(1.0, norm / threshold);
  if (denom > 1.0) {
    const auto inv = static_cast<float>(1.0 / denom);
    for (auto& v : g) v *= inv;
  }
  return norm;
}

void add_gaussian_noise(std::vector<float>& g, double sigma, Rng& rng) {
  if (sigma < 0.0) throw std::invalid_argument("add_gaussian_noise: negative sigma");
  if (sigma == 0.0) return;
  rng.add_ziggurat_noise(g.data(), g.size(), sigma);
}

double gaussian_sigma(double l2_sensitivity, double epsilon, double delta) {
  if (epsilon <= 0.0) throw std::invalid_argument("gaussian_sigma: epsilon must be positive");
  if (delta <= 0.0 || delta >= 1.0) {
    throw std::invalid_argument("gaussian_sigma: delta must be in (0,1)");
  }
  if (l2_sensitivity < 0.0) throw std::invalid_argument("gaussian_sigma: negative sensitivity");
  return std::sqrt(2.0 * std::log(1.25 / delta)) * l2_sensitivity / epsilon;
}

std::vector<float> privatize(const std::vector<float>& g, double clip, double sigma, Rng& rng) {
  std::vector<float> out = g;
  clip_l2(out, clip);
  add_gaussian_noise(out, sigma, rng);
  return out;
}

}  // namespace pdsl::dp
