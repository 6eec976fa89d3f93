#pragma once
// Gaussian mechanism building blocks (S5): L2 clipping (Eq. 10/13) and noise
// injection (Eq. 11/14). All algorithms share these so their privacy
// treatment is identical up to where the noise is applied.

#include <vector>

#include "common/rng.hpp"

namespace pdsl::dp {

/// Clip `g` in place to L2 norm at most `threshold` (the paper's Eq. 10):
/// g <- g / max(1, ||g|| / C). Returns the pre-clip norm.
double clip_l2(std::vector<float>& g, double threshold);

/// Add i.i.d. N(0, sigma^2) noise to every coordinate (Eq. 11): bit for bit
/// g[i] += float(sigma * rng.ziggurat_normal()) in coordinate order, drawn in
/// bulk by Rng::add_ziggurat_noise. sigma == 0 draws nothing.
void add_gaussian_noise(std::vector<float>& g, double sigma, Rng& rng);

/// Standard Gaussian-mechanism noise scale for (epsilon, delta)-DP given L2
/// sensitivity `l2_sensitivity` (Dwork & Roth, Thm. 3.22):
///   sigma >= sqrt(2 ln(1.25/delta)) * sensitivity / epsilon
/// Requires delta in (0,1) and epsilon > 0.
[[nodiscard]] double gaussian_sigma(double l2_sensitivity, double epsilon, double delta);

/// Clip-then-perturb in one call; returns the privatized gradient.
[[nodiscard]] std::vector<float> privatize(const std::vector<float>& g, double clip,
                                           double sigma, Rng& rng);

}  // namespace pdsl::dp
