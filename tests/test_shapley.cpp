// Shapley values: the classical axioms on the exact solver, Monte Carlo
// convergence (Algorithm 2), the normalization/weighting pipeline
// (Eqs. 19-20), and the S-SHAP hot path (the game's prefetch batching,
// adaptive antithetic Monte Carlo, CoalitionBatchEvaluator).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>

#include "core/experiment.hpp"
#include "data/synthetic.hpp"
#include "kernels/backend.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pooling.hpp"
#include "runtime/parallel_for.hpp"
#include "shapley/game.hpp"
#include "shapley/shapley.hpp"
#include "shapley/weighting.hpp"
#include "sim/evaluate.hpp"
#include "sim/metrics.hpp"

using namespace pdsl;
using namespace pdsl::shapley;

namespace {

/// v(S) of one coalition, passed as its ascending member list.
using CoalitionFn = std::function<double(const std::vector<std::size_t>& coalition)>;

/// Wrap a per-coalition characteristic as a batch fn (loop over masks),
/// counting how many batch calls were made.
BatchCharacteristicFn batch_of(CoalitionFn fn, std::size_t* batch_calls = nullptr) {
  return [fn = std::move(fn), batch_calls](const std::vector<std::uint64_t>& masks) {
    if (batch_calls != nullptr) ++*batch_calls;
    std::vector<double> out;
    out.reserve(masks.size());
    for (const auto m : masks) out.push_back(fn(Game::members(m)));
    return out;
  };
}

/// Additive game: v(S) = sum of per-player worths -> phi_i = worth_i.
CoalitionFn additive_game(std::vector<double> worth) {
  return [worth = std::move(worth)](const std::vector<std::size_t>& coalition) {
    double v = 0.0;
    for (std::size_t p : coalition) v += worth[p];
    return v;
  };
}

/// Symmetric "majority" game: v(S) = 1 if |S| >= quota else 0.
CoalitionFn majority_game(std::size_t quota) {
  return [quota](const std::vector<std::size_t>& coalition) {
    return coalition.size() >= quota ? 1.0 : 0.0;
  };
}

}  // namespace

TEST(Game, MemoizesAndCounts) {
  std::size_t calls = 0;
  Game game(3, batch_of([&](const std::vector<std::size_t>& c) {
    ++calls;
    return static_cast<double>(c.size());
  }));
  EXPECT_DOUBLE_EQ(game.value(0b101), 2.0);
  EXPECT_DOUBLE_EQ(game.value(0b101), 2.0);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(game.evaluations(), 1u);
  EXPECT_DOUBLE_EQ(game.value(0), 0.0);  // empty coalition is free
  EXPECT_EQ(calls, 1u);
}

TEST(Game, MembersRoundTrip) {
  EXPECT_EQ(Game::members(0b1011), (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_TRUE(Game::members(0).empty());
}

TEST(Game, Validation) {
  EXPECT_THROW(Game(0, batch_of(additive_game({}))), std::invalid_argument);
  EXPECT_THROW(Game(64, batch_of(additive_game(std::vector<double>(64, 1.0)))),
               std::invalid_argument);
  EXPECT_THROW(Game(3, nullptr), std::invalid_argument);
  Game g(2, batch_of(additive_game({1, 2})));
  EXPECT_THROW(g.value(0b100), std::out_of_range);
  EXPECT_THROW(g.prefetch({0b100}), std::out_of_range);
}

TEST(ExactShapley, AdditivityAxiom) {
  // For additive games the Shapley value is each player's own worth.
  Game game(4, batch_of(additive_game({1.0, -2.0, 0.5, 3.0})));
  const auto phi = exact_shapley(game);
  EXPECT_NEAR(phi[0], 1.0, 1e-12);
  EXPECT_NEAR(phi[1], -2.0, 1e-12);
  EXPECT_NEAR(phi[2], 0.5, 1e-12);
  EXPECT_NEAR(phi[3], 3.0, 1e-12);
}

TEST(ExactShapley, EfficiencyAxiom) {
  // Balance: payoffs sum to v(grand coalition).
  Game game(5, batch_of(majority_game(3)));
  const auto phi = exact_shapley(game);
  const double total = std::accumulate(phi.begin(), phi.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ExactShapley, SymmetryAxiom) {
  Game game(5, batch_of(majority_game(3)));
  const auto phi = exact_shapley(game);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_NEAR(phi[i], phi[0], 1e-12);
}

TEST(ExactShapley, NullPlayerAxiom) {
  // Player 2 contributes nothing to any coalition.
  Game game(3, batch_of([](const std::vector<std::size_t>& c) {
    double v = 0.0;
    for (std::size_t p : c) {
      if (p != 2) v += 1.0;
    }
    return v;
  }));
  const auto phi = exact_shapley(game);
  EXPECT_NEAR(phi[2], 0.0, 1e-12);
  EXPECT_NEAR(phi[0], 1.0, 1e-12);
}

TEST(ExactShapley, GloveGameKnownValues) {
  // Classic 3-player glove game: players {0,1} hold left gloves, {2} right.
  // v(S) = 1 iff S contains player 2 and at least one of {0,1}.
  Game game(3, batch_of([](const std::vector<std::size_t>& c) {
    bool right = false, left = false;
    for (std::size_t p : c) {
      if (p == 2) right = true;
      else left = true;
    }
    return (right && left) ? 1.0 : 0.0;
  }));
  const auto phi = exact_shapley(game);
  EXPECT_NEAR(phi[0], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(phi[1], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(phi[2], 4.0 / 6.0, 1e-12);
}

TEST(ExactShapley, RefusesLargeGames) {
  Game game(21, batch_of(majority_game(5)));
  EXPECT_THROW(exact_shapley(game), std::invalid_argument);
}

TEST(MonteCarloShapley, EfficiencyHoldsPerEstimate) {
  // Every permutation telescopes to v(full) - v(empty), so even the MC
  // estimate is exactly efficient.
  Game game(6, batch_of(majority_game(4)));
  Rng rng(1);
  const auto phi = monte_carlo_shapley(game, 20, rng);
  EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), 1.0, 1e-9);
}

TEST(MonteCarloShapley, ConvergesToExact) {
  Game game_a(6, batch_of(additive_game({0.1, 0.9, 0.3, 0.5, 0.7, 0.2})));
  const auto exact = exact_shapley(game_a);
  Game game_b(6, batch_of(additive_game({0.1, 0.9, 0.3, 0.5, 0.7, 0.2})));
  Rng rng(2);
  const auto mc = monte_carlo_shapley(game_b, 3000, rng);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(mc[i], exact[i], 0.05);
}

class McAccuracy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(McAccuracy, ErrorShrinksWithMorePermutations) {
  const std::size_t R = GetParam();
  auto fn = [](const std::vector<std::size_t>& c) {
    // Superadditive game with asymmetric players.
    double v = 0.0;
    for (std::size_t p : c) v += static_cast<double>(p + 1);
    return v * v / 100.0;
  };
  Game exact_game(5, batch_of(fn));
  const auto exact = exact_shapley(exact_game);
  double err = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    Game g(5, batch_of(fn));
    Rng rng(100 + s);
    const auto mc = monte_carlo_shapley(g, R, rng);
    for (std::size_t i = 0; i < 5; ++i) err += std::abs(mc[i] - exact[i]);
  }
  // Calibrated loose bound ~ c/sqrt(R): at R=4 allow much more error than R=256.
  EXPECT_LT(err / 25.0, 1.2 / std::sqrt(static_cast<double>(R)) + 0.02);
}

INSTANTIATE_TEST_SUITE_P(PermutationSweep, McAccuracy,
                         ::testing::Values(std::size_t{4}, std::size_t{16}, std::size_t{64},
                                           std::size_t{256}));

TEST(TruncatedMc, MatchesMcWhenNothingTruncates) {
  // With tolerance 0 (and a strictly increasing game) no truncation happens,
  // so TMC equals plain MC on the same rng stream.
  auto fn = additive_game({0.3, 0.1, 0.4, 0.2});
  Game a(4, batch_of(fn)), b(4, batch_of(fn));
  Rng r1(5), r2(5);
  const auto mc = monte_carlo_shapley(a, 50, r1);
  TruncatedMcOptions opts;
  opts.num_permutations = 50;
  opts.tolerance = 0.0;
  const auto tmc = truncated_monte_carlo_shapley(b, opts, r2);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(tmc[i], mc[i], 1e-12);
}

TEST(TruncatedMc, SavesEvaluationsOnSaturatingGames) {
  // v saturates at 1 once any two players join: deep prefixes are skipped.
  auto fn = majority_game(2);
  Game full_game(10, batch_of(fn));
  Rng r1(6);
  (void)monte_carlo_shapley(full_game, 30, r1);
  Game trunc_game(10, batch_of(fn));
  Rng r2(6);
  TruncatedMcOptions opts;
  opts.num_permutations = 30;
  opts.tolerance = 0.001;
  const auto phi = truncated_monte_carlo_shapley(trunc_game, opts, r2);
  EXPECT_LT(trunc_game.evaluations(), full_game.evaluations());
  // Still roughly symmetric and efficient-ish.
  double total = std::accumulate(phi.begin(), phi.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 0.05);
}

TEST(TruncatedMc, Validation) {
  Game g(3, batch_of(majority_game(2)));
  Rng rng(7);
  TruncatedMcOptions opts;
  opts.num_permutations = 0;
  EXPECT_THROW(truncated_monte_carlo_shapley(g, opts, rng), std::invalid_argument);
  opts.num_permutations = 2;
  opts.tolerance = -1.0;
  EXPECT_THROW(truncated_monte_carlo_shapley(g, opts, rng), std::invalid_argument);
}

TEST(Stratified, ConvergesToExactOnAdditiveGame) {
  auto fn = additive_game({0.5, -0.2, 0.8, 0.1, 0.3});
  Game g(5, batch_of(fn));
  Rng rng(8);
  const auto phi = stratified_shapley(g, 40, rng);
  // Additive games: stratified estimator is unbiased with zero variance in
  // the marginal (marginal of i is worth_i regardless of coalition).
  EXPECT_NEAR(phi[0], 0.5, 1e-9);
  EXPECT_NEAR(phi[2], 0.8, 1e-9);
}

TEST(Stratified, ApproximatesExactOnInteractionGame) {
  auto fn = [](const std::vector<std::size_t>& c) {
    double v = 0.0;
    for (std::size_t p : c) v += static_cast<double>(p + 1);
    return v * v / 50.0;
  };
  Game exact_g(5, batch_of(fn));
  const auto exact = exact_shapley(exact_g);
  Game strat_g(5, batch_of(fn));
  Rng rng(9);
  const auto strat = stratified_shapley(strat_g, 200, rng);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(strat[i], exact[i], 0.08);
}

TEST(Stratified, Validation) {
  Game g(3, batch_of(majority_game(2)));
  Rng rng(10);
  EXPECT_THROW(stratified_shapley(g, 0, rng), std::invalid_argument);
}

TEST(Weighting, MinMaxNormalization) {
  const auto out = minmax_normalize({2.0, 4.0, 3.0});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(Weighting, DegenerateNormalizationFallsBackToOnes) {
  const auto out = minmax_normalize({0.7, 0.7, 0.7});
  for (double v : out) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_THROW(minmax_normalize({}), std::invalid_argument);
}

TEST(Weighting, AggregationWeightsMatchEq20) {
  // pi_j = phî_j / (w_j * sum_k phî_k)
  const std::vector<double> phi_hat = {0.0, 1.0, 0.5};
  const std::vector<double> w_row = {0.25, 0.25, 0.5};
  const auto pi = aggregation_weights(phi_hat, w_row);
  EXPECT_NEAR(pi[0], 0.0, 1e-12);
  EXPECT_NEAR(pi[1], (1.0 / 1.5) / 0.25, 1e-12);
  EXPECT_NEAR(pi[2], (0.5 / 1.5) / 0.5, 1e-12);
}

TEST(Weighting, AggregationWeightsGuards) {
  EXPECT_THROW(aggregation_weights({1.0}, {0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(aggregation_weights({-1.0, 1.0}, {0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(aggregation_weights({1.0, 1.0}, {0.0, 0.5}), std::invalid_argument);
  // All-zero phi_hat degrades to uniform shares.
  const auto pi = aggregation_weights({0.0, 0.0}, {0.5, 0.5});
  EXPECT_NEAR(pi[0], 1.0, 1e-12);
  EXPECT_NEAR(pi[1], 1.0, 1e-12);
}

TEST(Weighting, ReluNormalization) {
  const auto out = relu_normalize({-0.5, 1.0, 0.25, -0.1});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.25);
  EXPECT_DOUBLE_EQ(out[3], 0.0);
  // All non-positive: fall back to all-ones (uniform prior).
  const auto flat = relu_normalize({-1.0, -2.0, 0.0});
  for (double v : flat) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_THROW(relu_normalize({}), std::invalid_argument);
}

TEST(Weighting, NormalizedShares) {
  const auto s = normalized_shares({1.0, 3.0});
  EXPECT_NEAR(s[0], 0.25, 1e-12);
  EXPECT_NEAR(s[1], 0.75, 1e-12);
  const auto uniform = normalized_shares({0.0, 0.0, 0.0});
  for (double v : uniform) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

// ---------------------------------------------------------------------------
// S-SHAP: prefetch batching
// ---------------------------------------------------------------------------

namespace {

/// Quadratic game v(S) = (sum of member worths)^2. Player i's marginal to a
/// prefix with mass W is w_i^2 + 2 w_i W; over an antithetic pair (a
/// permutation and its reversal) the prefix masses sum to W_total - w_i, so
/// the pair-averaged marginal is CONSTANT — antithetic sampling is exact here
/// while independent sampling is not.
CoalitionFn quadratic_game(std::vector<double> worth) {
  return [worth = std::move(worth)](const std::vector<std::size_t>& c) {
    double v = 0.0;
    for (std::size_t p : c) v += worth[p];
    return v * v;
  };
}

/// Like batch_of, but scores each chunk back to front — as a stacked
/// evaluator may — while returning the values in mask order.
BatchCharacteristicFn reversed_batch_of(CoalitionFn fn) {
  return [fn = std::move(fn)](const std::vector<std::uint64_t>& masks) {
    std::vector<double> out(masks.size());
    for (std::size_t q = masks.size(); q-- > 0;) out[q] = fn(Game::members(masks[q]));
    return out;
  };
}

}  // namespace

TEST(Game, EstimatesDoNotDependOnScoringOrder) {
  // Same estimator + same RNG stream over two scorers that visit a chunk's
  // coalitions in opposite orders must give bit-identical phi and the same
  // evaluation count: the game only changes WHEN values are computed, never
  // which value a mask gets or the order marginals are accumulated in.
  auto fn = [](const std::vector<std::size_t>& c) {
    double v = 0.0;
    for (std::size_t p : c) v += static_cast<double>(p + 1);
    return v * v / 50.0;
  };
  {
    Game fwd(5, batch_of(fn)), rev(5, reversed_batch_of(fn));
    const auto a = exact_shapley(fwd);
    const auto b = exact_shapley(rev);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(fwd.evaluations(), 31u);
    EXPECT_EQ(rev.evaluations(), 31u);
  }
  {
    Game fwd(6, batch_of(fn)), rev(6, reversed_batch_of(fn));
    Rng r1(42), r2(42);
    const auto a = monte_carlo_shapley(fwd, 12, r1);
    const auto b = monte_carlo_shapley(rev, 12, r2);
    for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(fwd.evaluations(), rev.evaluations());
  }
  {
    Game fwd(5, batch_of(fn)), rev(5, reversed_batch_of(fn));
    Rng r1(43), r2(43);
    const auto a = stratified_shapley(fwd, 10, r1);
    const auto b = stratified_shapley(rev, 10, r2);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(a[i], b[i]);
  }
  {
    Game fwd(6, batch_of(fn)), rev(6, reversed_batch_of(fn));
    Rng r1(44), r2(44);
    AdaptiveMcOptions opts;
    const auto a = adaptive_monte_carlo_shapley(fwd, opts, r1);
    const auto b = adaptive_monte_carlo_shapley(rev, opts, r2);
    EXPECT_EQ(a.permutations_used, b.permutations_used);
    EXPECT_EQ(a.early_stopped, b.early_stopped);
    for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(a.phi[i], b.phi[i]);
  }
}

TEST(Game, PrefetchBatchesAndDedupes) {
  std::size_t batch_calls = 0;
  Game game(4, batch_of(additive_game({1, 2, 3, 4}), &batch_calls));
  game.prefetch({0b0011, 0b0101, 0b0011, 0});  // dup + empty are dropped
  EXPECT_EQ(batch_calls, 1u);
  EXPECT_EQ(game.evaluations(), 2u);
  // Prefetched values come from the memo; no further batch calls.
  EXPECT_DOUBLE_EQ(game.value(0b0011), 3.0);
  EXPECT_DOUBLE_EQ(game.value(0b0101), 4.0);
  EXPECT_EQ(batch_calls, 1u);
  // A mask that was never announced is scored alone.
  EXPECT_DOUBLE_EQ(game.value(0b1000), 4.0);
  EXPECT_EQ(batch_calls, 2u);
  EXPECT_EQ(game.evaluations(), 3u);
  // Re-announcing known masks is a no-op.
  game.prefetch({0b0011, 0b1000});
  EXPECT_EQ(batch_calls, 2u);
}

TEST(Game, PrefetchChunksAtMost512Masks) {
  // Exact enumeration over 10 players announces all 1023 non-empty
  // coalitions at once; they are scored in announcement order, in chunks of
  // at most 512, each exactly once.
  std::vector<std::size_t> chunk_sizes;
  std::vector<std::uint64_t> scored;
  Game game(10, [&](const std::vector<std::uint64_t>& masks) {
    chunk_sizes.push_back(masks.size());
    scored.insert(scored.end(), masks.begin(), masks.end());
    return std::vector<double>(masks.size(), 1.0);
  });
  (void)exact_shapley(game);
  EXPECT_EQ(chunk_sizes, (std::vector<std::size_t>{512, 511}));
  ASSERT_EQ(scored.size(), 1023u);
  for (std::size_t k = 0; k < scored.size(); ++k) EXPECT_EQ(scored[k], k + 1);
  EXPECT_EQ(game.evaluations(), 1023u);
}

TEST(Game, WrongValueCountIsALogicError) {
  Game game(3, [](const std::vector<std::uint64_t>&) { return std::vector<double>{}; });
  EXPECT_THROW(game.value(0b001), std::logic_error);
}

// ---------------------------------------------------------------------------
// S-SHAP: variance-adaptive Monte Carlo
// ---------------------------------------------------------------------------

TEST(AdaptiveMc, EfficiencyHoldsPerEstimate) {
  // Pair-averaged permutation walks still telescope to v(full) - v(empty).
  Game game(6, batch_of(majority_game(4)));
  Rng rng(21);
  AdaptiveMcOptions opts;
  const auto res = adaptive_monte_carlo_shapley(game, opts, rng);
  EXPECT_NEAR(std::accumulate(res.phi.begin(), res.phi.end(), 0.0), 1.0, 1e-9);
  EXPECT_GE(res.permutations_used, opts.min_permutations);
  EXPECT_LE(res.permutations_used, opts.max_permutations);
}

TEST(AdaptiveMc, AntitheticIsExactOnQuadraticGames) {
  // See quadratic_game: the antithetic pair average has zero variance, so the
  // adaptive estimator lands on the exact Shapley value; plain MC at the same
  // budget does not. This is the variance-reduction property in its sharpest
  // form.
  const std::vector<double> worth = {0.4, 1.1, 0.25, 0.8, 0.6};
  auto fn = quadratic_game(worth);
  Game exact_g(5, batch_of(fn));
  const auto exact = exact_shapley(exact_g);

  Game anti_g(5, batch_of(fn));
  Rng r1(77);
  AdaptiveMcOptions opts;
  opts.min_permutations = 4;
  opts.max_permutations = 8;
  const auto anti = adaptive_monte_carlo_shapley(anti_g, opts, r1);
  double anti_err = 0.0, plain_err = 0.0;
  for (std::size_t i = 0; i < 5; ++i) anti_err += std::abs(anti.phi[i] - exact[i]);
  EXPECT_LT(anti_err, 1e-9);

  Game plain_g(5, batch_of(fn));
  Rng r2(77);
  const auto plain = monte_carlo_shapley(plain_g, 8, r2);
  for (std::size_t i = 0; i < 5; ++i) plain_err += std::abs(plain[i] - exact[i]);
  EXPECT_GT(plain_err, 1e-6);
}

TEST(AdaptiveMc, AntitheticReducesErrorAtFixedBudget) {
  // Statistical version across seeds on an interaction game: mean absolute
  // error with antithetic pairs <= without, at the same permutation budget.
  auto fn = quadratic_game({0.3, 0.9, 0.5, 0.7, 0.2, 0.6});
  Game exact_g(6, batch_of(fn));
  const auto exact = exact_shapley(exact_g);
  AdaptiveMcOptions anti_opts;
  anti_opts.min_permutations = anti_opts.max_permutations = 16;  // no early stop
  AdaptiveMcOptions plain_opts = anti_opts;
  plain_opts.antithetic = false;
  double anti_err = 0.0, plain_err = 0.0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    Game ga(6, batch_of(fn)), gp(6, batch_of(fn));
    Rng ra(300 + s), rp(300 + s);
    const auto a = adaptive_monte_carlo_shapley(ga, anti_opts, ra);
    const auto p = adaptive_monte_carlo_shapley(gp, plain_opts, rp);
    EXPECT_EQ(a.permutations_used, 16u);
    EXPECT_EQ(p.permutations_used, 16u);
    for (std::size_t i = 0; i < 6; ++i) {
      anti_err += std::abs(a.phi[i] - exact[i]);
      plain_err += std::abs(p.phi[i] - exact[i]);
    }
  }
  EXPECT_LT(anti_err, plain_err);
}

TEST(AdaptiveMc, EarlyStopsAndPreservesTopPlayer) {
  // One dominant player: the CI gap opens quickly, sampling stops early, and
  // the argmax matches both the exact value and a full-budget run.
  auto fn = quadratic_game({0.1, 0.15, 2.0, 0.12, 0.08});
  Game exact_g(5, batch_of(fn));
  const auto exact = exact_shapley(exact_g);
  const auto top_exact = static_cast<std::size_t>(
      std::max_element(exact.begin(), exact.end()) - exact.begin());

  Game g(5, batch_of(fn));
  Rng rng(55);
  AdaptiveMcOptions opts;
  opts.min_permutations = 4;
  opts.max_permutations = 64;
  const auto res = adaptive_monte_carlo_shapley(g, opts, rng);
  EXPECT_TRUE(res.early_stopped);
  EXPECT_LT(res.permutations_used, opts.max_permutations);
  const auto top_adaptive = static_cast<std::size_t>(
      std::max_element(res.phi.begin(), res.phi.end()) - res.phi.begin());
  EXPECT_EQ(top_adaptive, top_exact);

  Game g_full(5, batch_of(fn));
  Rng rng_full(55);
  AdaptiveMcOptions full_opts = opts;
  full_opts.min_permutations = full_opts.max_permutations;  // disable the stop
  const auto full = adaptive_monte_carlo_shapley(g_full, full_opts, rng_full);
  EXPECT_FALSE(full.early_stopped);
  const auto top_full = static_cast<std::size_t>(
      std::max_element(full.phi.begin(), full.phi.end()) - full.phi.begin());
  EXPECT_EQ(top_adaptive, top_full);
}

TEST(AdaptiveMc, Validation) {
  Game g(3, batch_of(majority_game(2)));
  Rng rng(1);
  AdaptiveMcOptions opts;
  opts.max_permutations = 0;
  EXPECT_THROW(adaptive_monte_carlo_shapley(g, opts, rng), std::invalid_argument);
  opts.max_permutations = 4;
  opts.ci_z = -1.0;
  EXPECT_THROW(adaptive_monte_carlo_shapley(g, opts, rng), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// S-SHAP: CoalitionBatchEvaluator
// ---------------------------------------------------------------------------

TEST(CoalitionBatchEvaluator, BatchableRecognizesLayerChains) {
  using E = sim::CoalitionBatchEvaluator;
  // Stackable (batched and linear mode): the {Flatten, Linear, ReLU} chains.
  for (const nn::Model& m : {nn::make_mlp(16, 8, 4), nn::make_logistic(16, 4)}) {
    EXPECT_TRUE(E::stackable(m));
    EXPECT_TRUE(E::linear_scorable(m));
  }
  // Linear-scorable only: the Conv2D-first CNNs.
  for (const nn::Model& m : {nn::make_mnist_cnn(10, 1, 4), nn::make_cifar_cnn(8, 3, 4)}) {
    EXPECT_FALSE(E::stackable(m));
    EXPECT_TRUE(E::linear_scorable(m));
  }
  // Neither: a chain that starts with ReLU or MaxPool2D, and an empty model.
  nn::Model relu_first;
  relu_first.emplace<nn::ReLU>().emplace<nn::Flatten>().emplace<nn::Linear>(16, 4);
  nn::Model pool_first;
  pool_first.emplace<nn::MaxPool2D>().emplace<nn::Conv2D>(1, 2, 3, 1);
  for (const nn::Model& m : {relu_first, pool_first, nn::Model{}}) {
    EXPECT_FALSE(E::stackable(m));
    EXPECT_FALSE(E::linear_scorable(m));
  }
  const auto ds = data::make_gaussian_mixture(8, 4, 16, 2.5, 0.5, 9);
  const auto batch = sim::FixedBatch::from(ds, {0, 1, 2, 3});
  EXPECT_THROW(E(relu_first, batch), std::invalid_argument);
}

TEST(CoalitionBatchEvaluator, BitIdenticalToSequentialScoring) {
  // The whole S-SHAP contract: stacked-GEMM scores must EQUAL the sequential
  // accuracy_on/loss_on doubles, not approximate them.
  const auto ds = data::make_gaussian_mixture(80, 4, 6, 2.5, 0.5, 9);
  std::vector<std::size_t> idx(40);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const auto batch = sim::FixedBatch::from(ds, idx);

  nn::Model model = nn::make_mlp(6, 12, 4);
  Rng rng(17);
  model.init(rng);
  const auto base = model.flat_params();
  std::vector<std::vector<float>> candidates;
  for (std::uint64_t s = 0; s < 5; ++s) {
    auto p = base;
    Rng prng(100 + s);
    for (auto& v : p) v += 0.2f * static_cast<float>(prng.normal());
    candidates.push_back(std::move(p));
  }

  std::vector<const std::vector<float>*> ptrs;
  for (const auto& c : candidates) ptrs.push_back(&c);
  sim::CoalitionBatchEvaluator eval(model, batch);
  const auto accs = eval.accuracies(ptrs);
  const auto losses = eval.losses(ptrs);
  ASSERT_EQ(accs.size(), candidates.size());
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    EXPECT_EQ(accs[k], sim::accuracy_on(model, candidates[k], batch)) << "model " << k;
    EXPECT_EQ(losses[k], sim::loss_on(model, candidates[k], batch)) << "model " << k;
  }
}

TEST(CoalitionBatchEvaluator, ChunkedStackBitIdenticalToUnchunked) {
  // Oversized batches are split into cache-budgeted chunks along the model
  // axis. A one-model-per-GEMM budget must give byte-for-byte the same scores
  // as one giant stack (and as the sequential path) — chunking only splits
  // the independent output columns, never a reduction.
  const auto ds = data::make_gaussian_mixture(80, 4, 6, 2.5, 0.5, 9);
  std::vector<std::size_t> idx(40);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const auto batch = sim::FixedBatch::from(ds, idx);

  nn::Model model = nn::make_mlp(6, 12, 4);
  Rng rng(17);
  model.init(rng);
  const auto base = model.flat_params();
  std::vector<std::vector<float>> candidates;
  for (std::uint64_t s = 0; s < 9; ++s) {
    auto p = base;
    Rng prng(200 + s);
    for (auto& v : p) v += 0.2f * static_cast<float>(prng.normal());
    candidates.push_back(std::move(p));
  }
  std::vector<const std::vector<float>*> ptrs;
  for (const auto& c : candidates) ptrs.push_back(&c);

  sim::CoalitionBatchEvaluator one_stack(model, batch);  // default budget: 1 chunk
  sim::CoalitionBatchEvaluator tiny(model, batch, /*weight_budget_bytes=*/1);  // 1 model/chunk
  EXPECT_EQ(one_stack.accuracies(ptrs), tiny.accuracies(ptrs));
  EXPECT_EQ(one_stack.losses(ptrs), tiny.losses(ptrs));
  const auto accs = tiny.accuracies(ptrs);
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    EXPECT_EQ(accs[k], sim::accuracy_on(model, candidates[k], batch)) << "model " << k;
  }
  EXPECT_THROW(sim::CoalitionBatchEvaluator(model, batch, 0), std::invalid_argument);
}

TEST(CoalitionBatchEvaluator, RejectsWrongParamCount) {
  const auto ds = data::make_gaussian_mixture(40, 3, 6, 2.5, 0.5, 9);
  std::vector<std::size_t> idx = {0, 1, 2, 3};
  const auto batch = sim::FixedBatch::from(ds, idx);
  nn::Model model = nn::make_mlp(6, 8, 3);
  sim::CoalitionBatchEvaluator eval(model, batch);
  std::vector<float> wrong(model.num_params() + 1, 0.0f);
  std::vector<const std::vector<float>*> ptrs = {&wrong};
  EXPECT_THROW(eval.accuracies(ptrs), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// S-SHAP: linear coalition mode (set_members / coalition_*)
// ---------------------------------------------------------------------------

namespace {

/// Members + validation batch shared by the linear-mode tests.
struct LinearBed {
  nn::Model model = nn::make_mlp(6, 12, 4);
  sim::FixedBatch batch;
  std::vector<std::vector<float>> members;
  std::vector<const std::vector<float>*> ptrs;

  LinearBed() {
    const auto ds = data::make_gaussian_mixture(80, 4, 6, 2.5, 0.5, 9);
    std::vector<std::size_t> idx(40);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    batch = sim::FixedBatch::from(ds, idx);
    Rng rng(11);
    model.init(rng);
    const auto base = model.flat_params();
    for (std::size_t s = 0; s < 6; ++s) {
      auto p = base;
      Rng prng(200 + s);
      for (auto& v : p) v += 0.2f * static_cast<float>(prng.normal());
      members.push_back(std::move(p));
    }
    for (const auto& m : members) ptrs.push_back(&m);
  }

  /// Sequential reference: average member params (ascending order, like
  /// common::mean_of) and score with accuracy_on/loss_on.
  std::vector<float> coalition_mean(std::uint64_t mask) const {
    std::vector<const std::vector<float>*> in;
    for (std::size_t k = 0; k < members.size(); ++k) {
      if (mask & (std::uint64_t{1} << k)) in.push_back(&members[k]);
    }
    std::vector<float> out(members[0].size(), 0.0f);
    const float w = 1.0f / static_cast<float>(in.size());
    for (const auto* m : in) {
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += w * (*m)[i];
    }
    return out;
  }
};

}  // namespace

TEST(CoalitionBatchEvaluator, LinearModeMatchesSequentialWithinTolerance) {
  // Linear mode averages first-layer PRE-ACTIVATIONS instead of weights.
  // Mathematically identical; float addition does not distribute, so we
  // demand closeness, not bit-identity (that contract stays with batched).
  LinearBed bed;
  sim::CoalitionBatchEvaluator eval(bed.model, bed.batch);
  eval.set_members(bed.ptrs);

  std::vector<std::uint64_t> masks;
  for (std::uint64_t m = 1; m < (std::uint64_t{1} << bed.members.size()); ++m) {
    masks.push_back(m);
  }
  const auto accs = eval.coalition_accuracies(masks);
  const auto losses = eval.coalition_losses(masks);
  ASSERT_EQ(accs.size(), masks.size());
  const double acc_slack = 2.0 / static_cast<double>(bed.batch.y.size());
  for (std::size_t q = 0; q < masks.size(); ++q) {
    const auto avg = bed.coalition_mean(masks[q]);
    EXPECT_NEAR(losses[q], sim::loss_on(bed.model, avg, bed.batch), 1e-4)
        << "mask " << masks[q];
    // Accuracy is a step function of the logits; an ulp flip near an argmax
    // tie can move it by one sample, so allow a couple of samples of slack.
    EXPECT_NEAR(accs[q], sim::accuracy_on(bed.model, avg, bed.batch), acc_slack)
        << "mask " << masks[q];
  }
  // Singleton coalitions involve no averaging at all and the same layer
  // arithmetic as the stacked path, so they must match exactly.
  for (std::size_t k = 0; k < bed.members.size(); ++k) {
    const auto one = eval.coalition_accuracies({std::uint64_t{1} << k});
    EXPECT_EQ(one[0], sim::accuracy_on(bed.model, bed.members[k], bed.batch)) << "member " << k;
  }
}

TEST(CoalitionBatchEvaluator, LinearModeDeterministicAcrossInstances) {
  LinearBed bed;
  std::vector<std::uint64_t> masks = {0b1, 0b11, 0b10110, 0b111111, 0b101};
  sim::CoalitionBatchEvaluator a(bed.model, bed.batch);
  sim::CoalitionBatchEvaluator b(bed.model, bed.batch, /*weight_budget_bytes=*/1);
  a.set_members(bed.ptrs);
  b.set_members(bed.ptrs);
  // Chunking the member-stage GEMM must not change anything downstream,
  // and two evaluators must agree bit-for-bit (determinism contract).
  EXPECT_EQ(a.coalition_accuracies(masks), b.coalition_accuracies(masks));
  EXPECT_EQ(a.coalition_losses(masks), b.coalition_losses(masks));
  EXPECT_EQ(a.coalition_losses(masks), a.coalition_losses(masks));
}

TEST(CoalitionBatchEvaluator, LinearModeValidatesInputs) {
  LinearBed bed;
  sim::CoalitionBatchEvaluator eval(bed.model, bed.batch);
  // Scoring before set_members is a logic error.
  EXPECT_THROW(eval.coalition_accuracies({1}), std::logic_error);
  eval.set_members(bed.ptrs);
  // Empty coalitions and bits beyond the member count are rejected.
  EXPECT_THROW(eval.coalition_accuracies({0}), std::out_of_range);
  EXPECT_THROW(eval.coalition_accuracies({std::uint64_t{1} << bed.members.size()}),
               std::out_of_range);
  // >63 members cannot be expressed as a mask.
  std::vector<const std::vector<float>*> many(64, bed.ptrs[0]);
  EXPECT_THROW(eval.set_members(many), std::invalid_argument);
  EXPECT_THROW(eval.set_members({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// S-SHAP: linear coalition mode on Conv2D-first models (mnist_cnn, cifar_cnn)
// ---------------------------------------------------------------------------

namespace {

/// A CNN, its validation batch and five perturbed members.
struct CnnBed {
  std::string name;
  nn::Model model;
  sim::FixedBatch batch;
  std::vector<std::vector<float>> members;
  std::vector<const std::vector<float>*> ptrs;

  CnnBed(std::string label, nn::Model m, const data::SyntheticSpec& spec)
      : name(std::move(label)), model(std::move(m)) {
    const auto ds = data::make_synthetic_images(spec);
    std::vector<std::size_t> idx(ds.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    batch = sim::FixedBatch::from(ds, idx);
    Rng rng(23);
    model.init(rng);
    const auto base = model.flat_params();
    for (std::size_t s = 0; s < 5; ++s) {
      auto p = base;
      Rng prng(300 + s);
      for (auto& v : p) v += 0.05f * static_cast<float>(prng.normal());
      members.push_back(std::move(p));
    }
    for (const auto& mem : members) ptrs.push_back(&mem);
  }

  /// The averaged weights (ascending order, weight 1/|S|, like mean_of).
  std::vector<float> coalition_mean(std::uint64_t mask) const {
    std::vector<float> out(members[0].size(), 0.0f);
    const auto w = static_cast<float>(1.0 / static_cast<double>(__builtin_popcountll(mask)));
    for (std::size_t k = 0; k < members.size(); ++k) {
      if (!(mask & (std::uint64_t{1} << k))) continue;
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += w * members[k][i];
    }
    return out;
  }

  /// Samples whose top two logits under `params` are within a rounding-level
  /// gap: the only ones whose predicted class may differ between averaging
  /// pre-activations and averaging weights.
  std::size_t near_ties(const std::vector<float>& params) {
    model.set_flat_params(params);
    const Tensor logits = model.forward(batch.x);
    const std::size_t classes = logits.dim(1);
    std::size_t ties = 0;
    for (std::size_t r = 0; r < logits.dim(0); ++r) {
      std::vector<float> row(logits.data() + r * classes, logits.data() + (r + 1) * classes);
      std::partial_sort(row.begin(), row.begin() + 2, row.end(), std::greater<>());
      ties += row[0] - row[1] <= 1e-4f * std::max(1.0f, std::abs(row[0])) ? 1 : 0;
    }
    return ties;
  }
};

std::vector<CnnBed> cnn_beds() {
  std::vector<CnnBed> beds;
  beds.reserve(2);
  beds.emplace_back("mnist_cnn", nn::make_mnist_cnn(8, 1, 10), data::mnist_like_spec(20, 8, 3));
  beds.emplace_back("cifar_cnn", nn::make_cifar_cnn(8, 3, 10), data::cifar_like_spec(20, 8, 4));
  return beds;
}

}  // namespace

TEST(CoalitionBatchEvaluator, LinearModeOnConvFirstModelsTracksAveragedWeights) {
  // Conv1 is linear in weight and bias, so the mean of the members' conv1
  // pre-activations is the pre-activation of the averaged weights, up to
  // rounding. Every coalition of five members is checked against loss_on /
  // accuracy_on on the averaged weights.
  for (CnnBed& bed : cnn_beds()) {
    SCOPED_TRACE(bed.name);
    sim::CoalitionBatchEvaluator eval(bed.model, bed.batch);
    eval.set_members(bed.ptrs);
    std::vector<std::uint64_t> masks;
    for (std::uint64_t m = 1; m < (std::uint64_t{1} << bed.members.size()); ++m) {
      masks.push_back(m);
    }
    const auto losses = eval.coalition_losses(masks);
    const auto accs = eval.coalition_accuracies(masks);
    ASSERT_EQ(losses.size(), masks.size());
    const double n = static_cast<double>(bed.batch.y.size());
    for (std::size_t q = 0; q < masks.size(); ++q) {
      const auto avg = bed.coalition_mean(masks[q]);
      const double want_loss = sim::loss_on(bed.model, avg, bed.batch);
      EXPECT_NEAR(losses[q], want_loss, 1e-5 * std::abs(want_loss)) << "mask " << masks[q];
      const double want_acc = sim::accuracy_on(bed.model, avg, bed.batch);
      EXPECT_LE(std::abs(accs[q] - want_acc) * n,
                static_cast<double>(bed.near_ties(avg)) + 1e-9)
          << "mask " << masks[q];
    }
  }
}

TEST(CoalitionBatchEvaluator, LinearModeOnConvFirstModelsIsDeterministic) {
  const std::vector<std::uint64_t> masks = {0b1, 0b11, 0b10110, 0b11111, 0b101};
  for (CnnBed& bed : cnn_beds()) {
    SCOPED_TRACE(bed.name);
    sim::CoalitionBatchEvaluator a(bed.model, bed.batch);
    sim::CoalitionBatchEvaluator b(bed.model, bed.batch, /*weight_budget_bytes=*/1);
    a.set_members(bed.ptrs);
    b.set_members(bed.ptrs);
    const auto losses = a.coalition_losses(masks);
    const auto accs = a.coalition_accuracies(masks);
    EXPECT_EQ(b.coalition_losses(masks), losses);
    EXPECT_EQ(b.coalition_accuracies(masks), accs);
    EXPECT_EQ(a.coalition_losses(masks), losses);  // scoring leaves no state behind
    // Scores follow the members, not the evaluator's history.
    b.set_members({bed.ptrs[1], bed.ptrs[0]});
    b.set_members(bed.ptrs);
    EXPECT_EQ(b.coalition_losses(masks), losses);
  }
}

TEST(CoalitionBatchEvaluator, LinearModeOnConvFirstModelsValidatesInputs) {
  CnnBed bed = std::move(cnn_beds()[1]);
  sim::CoalitionBatchEvaluator eval(bed.model, bed.batch);
  EXPECT_THROW(eval.coalition_losses({1}), std::logic_error);  // before set_members
  std::vector<float> short_vec(bed.members[0].size() - 1, 0.0f);
  EXPECT_THROW(eval.set_members({bed.ptrs[0], &short_vec}), std::invalid_argument);
  EXPECT_THROW(eval.set_members({bed.ptrs[0], nullptr}), std::invalid_argument);
  EXPECT_THROW(eval.set_members({}), std::invalid_argument);
  EXPECT_THROW(eval.set_members(std::vector<const std::vector<float>*>(64, bed.ptrs[0])),
               std::invalid_argument);
  eval.set_members(bed.ptrs);
  EXPECT_THROW(eval.coalition_accuracies({0}), std::out_of_range);
  EXPECT_THROW(eval.coalition_accuracies({std::uint64_t{1} << bed.members.size()}),
               std::out_of_range);
  // Batched scoring stays MLP-only.
  EXPECT_THROW(eval.accuracies(bed.ptrs), std::logic_error);
  // A validation batch the model cannot take is refused up front.
  const auto flat = data::make_gaussian_mixture(8, 4, 6, 2.5, 0.5, 9);
  const auto wrong = sim::FixedBatch::from(flat, {0, 1, 2, 3});
  EXPECT_THROW(sim::CoalitionBatchEvaluator(bed.model, wrong), std::invalid_argument);
}

// The conv-first tail (conv1 members stacked, then ReLU -> MaxPool2D fused,
// the direct conv2, the fused pool again and the Linear head) at every ISA
// level, pinned to the scores of the im2col + sgemm convolution and the
// separate ReLU and MaxPool2D passes it replaced: an FNV-1a hash over the bits
// of every coalition's loss, then every coalition's accuracy, for all 31
// coalitions of five members. cifar_cnn_12 is the benchmark workloads'
// 12x12 geometry at their 24-image validation batch.
TEST(CoalitionBatchEvaluator, LinearModeOnConvFirstModelsIsPinnedAtEveryIsaLevel) {
  std::vector<CnnBed> beds = cnn_beds();
  beds.emplace_back("cifar_cnn_12", nn::make_cifar_cnn(12, 3, 10),
                    data::cifar_like_spec(24, 12, 5));
  const std::uint64_t want[] = {0x2ab338a3e1391332ull, 0x67c5ffdf03352b15ull,
                                0x6c7872dd6820873eull};
  std::vector<std::uint64_t> masks;
  for (std::uint64_t m = 1; m < 32; ++m) masks.push_back(m);
  for (std::size_t b = 0; b < beds.size(); ++b) {
    for (const auto level : {kernels::Isa::kBaseline, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
      if (level > kernels::host_isa()) continue;
      SCOPED_TRACE(beds[b].name + " at " + kernels::isa_name(level));
      kernels::set_isa_cap(level);
      sim::CoalitionBatchEvaluator eval(beds[b].model, beds[b].batch);
      eval.set_members(beds[b].ptrs);
      const auto losses = eval.coalition_losses(masks);
      const auto accs = eval.coalition_accuracies(masks);
      kernels::set_isa_cap(kernels::Isa::kAvx512);
      std::uint64_t hash = 14695981039346656037ull;
      for (const auto* scores : {&losses, &accs}) {
        for (const double v : *scores) {
          const auto bits = std::bit_cast<std::uint64_t>(v);
          for (int i = 0; i < 8; ++i) {
            hash ^= (bits >> (8 * i)) & 0xffu;
            hash *= 1099511628211ull;
          }
        }
      }
      EXPECT_EQ(hash, want[b]);
    }
  }
}

TEST(CoalitionBatchEvaluator, LinearModeCnnRunBitIdenticalAcrossWidths) {
  // PDSL on the CIFAR-like CNN with linear coalition scoring: each agent
  // builds its evaluator (and its model clone) inside the parallel agent
  // loop, so the run must give the same bits at every --threads width.
  core::ExperimentConfig cfg;
  cfg.algorithm = "pdsl";
  cfg.dataset = "cifar_like";
  cfg.model = "cifar_cnn";
  cfg.topology = "full";
  cfg.agents = 4;
  cfg.rounds = 2;
  cfg.image = 8;
  cfg.train_samples = 160;
  cfg.test_samples = 40;
  cfg.validation_samples = 40;
  cfg.hp.batch = 8;
  cfg.hp.gamma = 0.01;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.hp.shapley_eval = "linear";
  cfg.noise_scale = 0.05;
  cfg.seed = 3;
  cfg.metrics.eval_every = 1;
  std::vector<core::ExperimentResult> runs;
  for (std::size_t w : {1u, 2u, 4u}) {
    cfg.threads = w;
    runs.push_back(core::run_experiment(cfg));
  }
  runtime::set_global_threads(1);
  ASSERT_GT(runs[0].series.back().shapley_evals, 0u);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    EXPECT_TRUE(runs[r].average_model == runs[0].average_model);
    ASSERT_EQ(runs[r].series.size(), runs[0].series.size());
    for (std::size_t t = 0; t < runs[0].series.size(); ++t) {
      EXPECT_EQ(sim::deterministic_diff(runs[r].series[t], runs[0].series[t]), "")
          << "round " << t;
    }
  }
}
