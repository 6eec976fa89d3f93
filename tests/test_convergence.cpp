// Properties the theory section (Theorems 1-2, Corollary 1) predicts, checked
// empirically on convex problems where Assumption 1 holds globally:
//   - PDSL's averaged-model gradient norm decreases over rounds;
//   - stronger noise slows convergence (Corollary 1's sigma^2 d term);
//   - the step-size bound of Theorem 2 is computable and positive;
//   - gossip contraction follows the spectral gap of W.

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "graph/spectral.hpp"
#include "nn/model_zoo.hpp"

using namespace pdsl;
using namespace pdsl::core;

namespace {
ExperimentConfig convex_cfg(const std::string& alg, double sigma) {
  ExperimentConfig cfg;
  cfg.algorithm = alg;
  cfg.dataset = "gaussian";
  cfg.model = "logistic";  // convex objective: L-smooth everywhere
  cfg.topology = "full";
  cfg.agents = 5;
  cfg.rounds = 30;
  cfg.train_samples = 500;
  cfg.test_samples = 100;
  cfg.validation_samples = 60;
  cfg.image = 3;
  cfg.mu = 0.3;
  cfg.hp.batch = 16;
  cfg.hp.gamma = 0.05;
  cfg.hp.alpha = 0.5;
  cfg.hp.clip = 5.0;
  cfg.hp.shapley_permutations = 3;
  cfg.hp.validation_batch = 24;
  cfg.sigma_mode = sigma > 0.0 ? "fixed" : "none";
  cfg.hp.sigma = sigma;
  cfg.metrics.test_subsample = 60;
  cfg.metrics.eval_every = 30;
  return cfg;
}
}  // namespace

TEST(Convergence, PdslLossDecreasesOnConvexProblem) {
  const auto res = run_experiment(convex_cfg("pdsl", 0.0));
  const double first = res.series.front().avg_loss;
  const double last = res.series.back().avg_loss;
  EXPECT_LT(last, first * 0.8);
}

TEST(Convergence, StrongerNoiseSlowsConvergence) {
  // Corollary 1: the bound scales with sigma^2 d. Average the tail loss.
  auto tail_loss = [](const ExperimentResult& r) {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = r.series.size() - 5; i < r.series.size(); ++i, ++n) {
      acc += r.series[i].avg_loss;
    }
    return acc / static_cast<double>(n);
  };
  const auto clean = run_experiment(convex_cfg("pdsl", 0.0));
  const auto noisy = run_experiment(convex_cfg("pdsl", 1.0));
  EXPECT_LT(tail_loss(clean), tail_loss(noisy));
}

TEST(Convergence, LinearSpeedupProxy_MoreRoundsLowerLoss) {
  auto cfg = convex_cfg("pdsl", 0.05);
  cfg.rounds = 8;
  const auto short_run = run_experiment(cfg);
  cfg.rounds = 40;
  const auto long_run = run_experiment(cfg);
  EXPECT_LT(long_run.series.back().avg_loss, short_run.series.back().avg_loss);
}

TEST(Convergence, Theorem2StepSizeWindowIsComputable) {
  // Eq. 31: the admissible (lower, upper) window for gamma. With alpha close
  // to 1 the lower bound (1-alpha)^2/alpha shrinks and a valid gamma exists.
  const double L = 1.0;
  for (double rho : {0.0, 0.25, 0.81}) {
    const double alpha = 0.9;
    const double sqrt_rho = std::sqrt(rho);
    const double lower = (1 - alpha) * (1 - alpha) / alpha;
    const double upper1 = (1 - alpha) * (1 - sqrt_rho) / (2.0 * std::sqrt(26.0) * L);
    const double term = std::sqrt(52.0 * L * L * (1 - alpha) * (1 - alpha) /
                                      (alpha * alpha * (1 - sqrt_rho) * (1 - sqrt_rho)) +
                                  1.0);
    const double upper2 = alpha * (1 - sqrt_rho) * (1 - sqrt_rho) /
                          (4.0 * 13.0 * L * L) * (-1.0 + term);
    EXPECT_GT(upper1, 0.0);
    EXPECT_GT(upper2, 0.0);
    EXPECT_GE(lower, 0.0);
  }
}

TEST(Convergence, GossipContractionMatchesSpectralGap) {
  // Pure averaging: disagreement norm shrinks by at most sqrt(rho) per round.
  for (const auto& topo : {graph::Graph::ring(8), graph::Graph::bipartite(8)}) {
    const auto w = graph::Metropolis(topo);
    const auto info = graph::analyze(w);

    Rng rng(3);
    std::vector<double> x(8);
    for (auto& v : x) v = rng.normal(0.0, 1.0);
    double mean = 0.0;
    for (double v : x) mean += v;
    mean /= 8.0;
    auto disagreement = [&](const std::vector<double>& v) {
      double s = 0.0;
      for (double u : v) s += (u - mean) * (u - mean);
      return std::sqrt(s);
    };
    double prev = disagreement(x);
    for (int round = 0; round < 5; ++round) {
      std::vector<double> y(8, 0.0);
      for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j : w.support(i)) y[i] += w(i, j) * x[j];
      }
      x = std::move(y);
      const double cur = disagreement(x);
      EXPECT_LE(cur, info.sqrt_rho * prev + 1e-9);
      prev = cur;
    }
  }
}

TEST(Convergence, PdslCompetitiveUnderHeterogeneityAndNoise) {
  // The paper's headline claim, in miniature: on heterogeneous data with DP
  // noise, PDSL's final loss is competitive with (not much worse than, and
  // typically better than) the heterogeneity-oblivious DP-DPSGD. Averaged
  // over seeds to damp mini-batch noise at this tiny scale.
  auto loss_for = [&](const std::string& alg) {
    double acc = 0.0;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      auto cfg = convex_cfg(alg, 0.2);
      cfg.rounds = 25;
      cfg.mu = 0.1;
      cfg.seed = seed;
      acc += run_experiment(cfg).series.back().avg_loss;
    }
    return acc / 3.0;
  };
  const double pdsl_loss = loss_for("pdsl");
  const double dpsgd_loss = loss_for("dp_dpsgd");
  EXPECT_LT(pdsl_loss, dpsgd_loss * 1.25 + 0.05);
}
