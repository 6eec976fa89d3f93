// Differential privacy: clipping, Gaussian mechanism, Theorem-1 calibration,
// composition accounting.

#include <gtest/gtest.h>

#include <cmath>

#include "common/vec_math.hpp"
#include "dp/accountant.hpp"
#include "dp/calibration.hpp"
#include "dp/mechanism.hpp"
#include "graph/mixing.hpp"
#include "graph/spectral.hpp"

using namespace pdsl;
using namespace pdsl::dp;

TEST(Clip, NormAboveThresholdIsScaledOntoSphere) {
  std::vector<float> g = {3.0f, 4.0f};  // norm 5
  const double pre = clip_l2(g, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(l2_norm(g), 1.0, 1e-6);
  EXPECT_NEAR(g[0] / g[1], 0.75, 1e-6);  // direction preserved
}

TEST(Clip, NormBelowThresholdUntouched) {
  std::vector<float> g = {0.3f, 0.4f};  // norm 0.5
  clip_l2(g, 1.0);
  EXPECT_FLOAT_EQ(g[0], 0.3f);
  EXPECT_FLOAT_EQ(g[1], 0.4f);
}

TEST(Clip, RejectsNonPositiveThreshold) {
  std::vector<float> g = {1.0f};
  EXPECT_THROW(clip_l2(g, 0.0), std::invalid_argument);
}

class ClipProperty : public ::testing::TestWithParam<double> {};

TEST_P(ClipProperty, OutputNormNeverExceedsThreshold) {
  const double c = GetParam();
  Rng rng(17);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<float> g(37);
    rng.fill_normal(g, 0.0, 10.0);
    clip_l2(g, c);
    EXPECT_LE(l2_norm(g), c * (1.0 + 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ClipProperty, ::testing::Values(0.1, 0.5, 1.0, 5.0, 50.0));

TEST(Gaussian, NoiseHasRequestedMoments) {
  const std::size_t d = 20000;
  for (const double sigma : {1e-3, 0.05, 0.5, 2.0, 40.0}) {
    SCOPED_TRACE(sigma);
    Rng rng(18);
    std::vector<float> g(d, 0.0f);
    add_gaussian_noise(g, sigma, rng);
    double sum = 0.0, sq = 0.0;
    for (float v : g) {
      sum += v;
      sq += static_cast<double>(v) * v;
    }
    // The sigma = 2 bands (0.08 and 0.3) scaled by sigma and sigma^2: about
    // 5.7 and 7.5 standard errors at d = 20000.
    EXPECT_NEAR(sum / d, 0.0, 0.04 * sigma);
    EXPECT_NEAR(sq / d, sigma * sigma, 0.075 * sigma * sigma);
  }
}

TEST(Gaussian, NoiseIsSigmaTimesTheZigguratStream) {
  // The DP stream is exactly sigma * Rng::ziggurat_normal per coordinate,
  // added in order: a fixed seed fixes every released value.
  Rng noise_rng(21), reference(21);
  std::vector<float> g = {1.0f, -2.0f, 0.5f, 0.0f, 3.0f};
  const std::vector<float> before = g;
  add_gaussian_noise(g, 0.7, noise_rng);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i], before[i] + static_cast<float>(0.7 * reference.ziggurat_normal()));
  }
}

TEST(Gaussian, ZeroSigmaIsIdentity) {
  Rng rng(19);
  std::vector<float> g = {1.0f, -2.0f};
  add_gaussian_noise(g, 0.0, rng);
  EXPECT_FLOAT_EQ(g[0], 1.0f);
  EXPECT_FLOAT_EQ(g[1], -2.0f);
}

TEST(Gaussian, SigmaFormulaMatchesDworkRoth) {
  // sigma = sqrt(2 ln(1.25/delta)) * sens / eps
  const double sigma = gaussian_sigma(2.0, 0.5, 1e-3);
  EXPECT_NEAR(sigma, std::sqrt(2.0 * std::log(1250.0)) * 2.0 / 0.5, 1e-9);
}

TEST(Gaussian, SigmaMonotonicity) {
  // More privacy (smaller eps, smaller delta) or more sensitivity -> more noise.
  EXPECT_GT(gaussian_sigma(1.0, 0.1, 1e-3), gaussian_sigma(1.0, 0.3, 1e-3));
  EXPECT_GT(gaussian_sigma(1.0, 0.1, 1e-5), gaussian_sigma(1.0, 0.1, 1e-3));
  EXPECT_GT(gaussian_sigma(2.0, 0.1, 1e-3), gaussian_sigma(1.0, 0.1, 1e-3));
}

TEST(Gaussian, SigmaRejectsBadBudgets) {
  EXPECT_THROW((void)gaussian_sigma(1.0, 0.0, 1e-3), std::invalid_argument);
  EXPECT_THROW((void)gaussian_sigma(1.0, 0.1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)gaussian_sigma(1.0, 0.1, 1.0), std::invalid_argument);
  EXPECT_THROW((void)gaussian_sigma(-1.0, 0.1, 1e-3), std::invalid_argument);
}

TEST(Privatize, ClipsThenPerturbs) {
  Rng rng(20);
  std::vector<float> g(1000, 10.0f);  // enormous norm
  const auto out = privatize(g, 1.0, 0.01, rng);
  // After clipping to norm 1 and adding tiny noise, norm must be ~1.
  EXPECT_NEAR(l2_norm(out), 1.0, 0.5);
}

namespace {
graph::Metropolis full_w(std::size_t m) {
  return graph::Metropolis(graph::Graph::full(m));
}
graph::Metropolis ring_w(std::size_t m) {
  return graph::Metropolis(graph::Graph::ring(m));
}
}  // namespace

TEST(Theorem1, SigmaMatchesClosedFormOnFullGraph) {
  // Fully connected M=4: w_ij = 1/4 everywhere, closed neighborhood = 4.
  const auto w = full_w(4);
  Theorem1Params p;
  p.epsilon = 0.1;
  p.delta = 1e-3;
  p.clip = 1.0;
  p.phi_hat_min = 0.2;
  // numerator: 2C(1/w_min + sum 1/w) sqrt(2 ln(1.25/delta)) = 2*(4 + 16)*sqrt(...)
  // denominator: phi * eps * sqrt(sum w^-2) = 0.2*0.1*sqrt(4*16)
  const double expected =
      2.0 * (4.0 + 16.0) * std::sqrt(2.0 * std::log(1.25 / 1e-3)) / (0.2 * 0.1 * 8.0);
  EXPECT_NEAR(theorem1_sigma(w, p), expected, 1e-9);
}

TEST(Theorem1, MonotoneInBudgetAndClip) {
  const auto w = full_w(6);
  Theorem1Params base;
  auto sigma_with = [&](auto mod) {
    Theorem1Params p = base;
    mod(p);
    return theorem1_sigma(w, p);
  };
  const double s0 = theorem1_sigma(w, base);
  EXPECT_GT(sigma_with([](auto& p) { p.epsilon = 0.05; }), s0);
  EXPECT_GT(sigma_with([](auto& p) { p.delta = 1e-6; }), s0);
  EXPECT_GT(sigma_with([](auto& p) { p.clip = 2.0; }), s0);
  EXPECT_GT(sigma_with([](auto& p) { p.phi_hat_min = 0.01; }), s0);
}

TEST(Theorem1, SparserGraphsNeedMoreNoise) {
  // Ring weights are 1/3 but the closed neighborhood is small; the dominant
  // term is 1/w_min. Compare ring vs full at equal M.
  Theorem1Params p;
  const double ring_sigma = theorem1_sigma(ring_w(12), p);
  const double full_sigma = theorem1_sigma(full_w(12), p);
  // Full graph: weights 1/12 -> 1/w_min = 12, sum = 12*12; ring: 3 + 9.
  // The full graph actually requires MORE noise under Theorem 1 because its
  // weights are smaller — verify the directional claim computed from the bound.
  EXPECT_GT(full_sigma, ring_sigma);
}

TEST(Theorem1, SensitivityBound) {
  const auto w = full_w(4);
  // 2C/w_min + sum 2C/w_ij = 2*4 + 2*16 = 40 with C=1... (8 + 32)
  EXPECT_NEAR(theorem1_sensitivity(w, 1.0), 8.0 + 32.0, 1e-9);
  EXPECT_THROW(theorem1_sensitivity(w, 0.0), std::invalid_argument);
}

TEST(Theorem1, ParameterValidation) {
  const auto w = full_w(4);
  Theorem1Params p;
  p.epsilon = -1;
  EXPECT_THROW(theorem1_sigma(w, p), std::invalid_argument);
  p = {};
  p.phi_hat_min = 0.0;
  EXPECT_THROW(theorem1_sigma(w, p), std::invalid_argument);
  p = {};
  p.delta = 1.0;
  EXPECT_THROW(theorem1_sigma(w, p), std::invalid_argument);
}

TEST(Accountant, BasicComposition) {
  PrivacyAccountant acc;
  acc.record_rounds(0.1, 1e-5, 10);
  EXPECT_EQ(acc.num_rounds(), 10u);
  EXPECT_NEAR(acc.basic_epsilon(), 1.0, 1e-12);
  EXPECT_NEAR(acc.basic_delta(), 1e-4, 1e-15);
}

TEST(Accountant, AdvancedBeatsBasicForManyRounds) {
  PrivacyAccountant acc;
  acc.record_rounds(0.01, 1e-6, 1000);
  const double adv = acc.advanced_epsilon(1e-5);
  EXPECT_LT(adv, acc.basic_epsilon());
}

TEST(Accountant, HeterogeneousRoundsRefuseAdvanced) {
  PrivacyAccountant acc;
  acc.record(0.1, 1e-5);
  acc.record(0.2, 1e-5);
  EXPECT_THROW((void)acc.advanced_epsilon(1e-5), std::logic_error);
  EXPECT_NEAR(acc.basic_epsilon(), 0.3, 1e-12);
}

TEST(Accountant, RejectsBadBudgets) {
  PrivacyAccountant acc;
  EXPECT_THROW(acc.record(0.0, 1e-5), std::invalid_argument);
  EXPECT_THROW(acc.record(0.1, 1.0), std::invalid_argument);
  EXPECT_THROW((void)acc.advanced_epsilon(0.0), std::invalid_argument);
}
