// Rényi-DP accountant: closed-form checks, composition, and comparison with
// the classic accountant's advanced composition.

#include <gtest/gtest.h>

#include <cmath>

#include "dp/accountant.hpp"
#include "dp/mechanism.hpp"
#include "dp/rdp.hpp"

using namespace pdsl::dp;

TEST(Rdp, SingleGaussianMatchesClosedForm) {
  // One invocation at noise multiplier z: eps(delta) =
  // min_a [ a/(2z^2) + log(1/delta)/(a-1) ], minimized (continuously) at
  // a* = 1 + sqrt(2 z^2 log(1/delta)) giving 1/(2z^2) + sqrt(2 log(1/delta))/z.
  const double z = 2.0;
  const double delta = 1e-5;
  RdpAccountant acc;
  acc.add_gaussian(z);
  const double expected =
      1.0 / (2.0 * z * z) + std::sqrt(2.0 * std::log(1.0 / delta)) / z;
  // Grid over discrete orders: allow a small gap above the continuous optimum.
  EXPECT_GE(acc.epsilon(delta), expected - 1e-9);
  EXPECT_LE(acc.epsilon(delta), expected * 1.05);
}

TEST(Rdp, ComposesLinearlyInRdpSpace) {
  RdpAccountant one;
  one.add_gaussian(1.0, 1);
  RdpAccountant hundred;
  hundred.add_gaussian(1.0, 100);
  // eps grows sublinearly in invocations (sqrt-ish), but RDP itself is linear:
  EXPECT_LT(hundred.epsilon(1e-5), 100.0 * one.epsilon(1e-5));
  EXPECT_GT(hundred.epsilon(1e-5), std::sqrt(100.0) * one.epsilon(1e-5) * 0.3);
  EXPECT_EQ(hundred.num_invocations(), 100u);
}

TEST(Rdp, MoreNoiseLessEpsilon) {
  RdpAccountant low, high;
  low.add_gaussian(0.5, 10);
  high.add_gaussian(4.0, 10);
  EXPECT_GT(low.epsilon(1e-5), high.epsilon(1e-5));
}

TEST(Rdp, TighterThanAdvancedCompositionForManyRounds) {
  // The headline benefit of the moments/RDP accountant. Use a per-round
  // budget derived from the same sigma so the comparison is apples-to-apples.
  const double sensitivity = 1.0;
  const double per_round_eps = 0.1;
  const double per_round_delta = 1e-6;
  const double sigma = gaussian_sigma(sensitivity, per_round_eps, per_round_delta);
  const std::size_t rounds = 500;

  PrivacyAccountant classic;
  classic.record_rounds(per_round_eps, per_round_delta, rounds);
  RdpAccountant rdp;
  rdp.add_gaussian(sigma / sensitivity, rounds);

  const double total_delta = rounds * per_round_delta + 1e-5;
  EXPECT_LT(rdp.epsilon(total_delta), classic.advanced_epsilon(1e-5));
}

TEST(Rdp, BestOrderShrinksWithMoreRounds) {
  // With more composition, the optimal Renyi order moves toward 1.
  RdpAccountant few, many;
  few.add_gaussian(1.0, 1);
  many.add_gaussian(1.0, 10000);
  EXPECT_GT(few.best_order(1e-5), many.best_order(1e-5));
}

TEST(Rdp, Validation) {
  RdpAccountant acc;
  EXPECT_THROW(acc.add_gaussian(0.0), std::invalid_argument);
  EXPECT_THROW((void)acc.epsilon(0.0), std::invalid_argument);
  EXPECT_THROW((void)acc.epsilon(1.0), std::invalid_argument);
  EXPECT_THROW(RdpAccountant({0.5}), std::invalid_argument);
  EXPECT_THROW(RdpAccountant(std::vector<double>{}), std::invalid_argument);
}
