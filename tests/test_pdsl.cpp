// PDSL integration tests: Algorithm 1 end to end on small problems, the
// Shapley observability hooks, the uniform-weights ablation and protocol
// robustness.

#include <gtest/gtest.h>

#include <cmath>

#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"

using namespace pdsl;
using namespace pdsl::algos;
using pdsl::core::Pdsl;

namespace {

struct Fixture {
  data::Dataset train;
  data::Dataset validation;
  data::Dataset test;
  graph::Graph topo;
  graph::Metropolis mixing;
  nn::Model model;
  std::vector<std::vector<std::size_t>> partition;

  static Fixture make(std::size_t agents, const std::string& topology, bool heterogeneous,
                      std::uint64_t seed = 31) {
    Rng rng(seed);
    auto pool = data::make_gaussian_mixture(800, 4, 6, 2.5, 0.5, seed);
    auto [rest, test] = data::split_off(pool, 120, rng);
    auto [train, validation] = data::split_off(rest, 120, rng);
    auto topo = graph::Graph::make(topology, agents, {&rng});
    auto mixing = graph::Metropolis(topo);
    nn::Model model = nn::make_mlp(6, 12, 4);
    std::vector<std::vector<std::size_t>> partition;
    if (heterogeneous) {
      data::PartitionOptions opts;
      opts.mu = 0.15;
      partition = data::dirichlet_partition(train, agents, opts, rng);
    } else {
      partition = data::iid_partition(train, agents, rng);
    }
    return Fixture{std::move(train), std::move(validation), std::move(test),
                   std::move(topo),  std::move(mixing),     std::move(model),
                   std::move(partition)};
  }

  Env env(double sigma = 0.0) const {
    Env e;
    e.topo = &topo;
    e.mixing = &mixing;
    e.train = &train;
    e.validation = &validation;
    e.model_template = &model;
    e.partition = &partition;
    e.hp.gamma = 0.05;
    e.hp.alpha = 0.5;
    e.hp.clip = 5.0;
    e.hp.sigma = sigma;
    e.hp.batch = 16;
    e.hp.shapley_permutations = 4;
    e.hp.validation_batch = 40;
    e.seed = 13;
    return e;
  }
};

}  // namespace

TEST(Pdsl, RequiresValidationSet) {
  const auto fx = Fixture::make(4, "ring", false);
  Env env = fx.env();
  env.validation = nullptr;
  EXPECT_THROW(Pdsl{env}, std::invalid_argument);
}

TEST(Pdsl, LearnsOnIidRing) {
  const auto fx = Fixture::make(4, "ring", false);
  Pdsl alg(fx.env(0.0));
  MetricsOptions mopts;
  mopts.test_subsample = 120;
  mopts.eval_every = 25;
  const auto series = run_with_metrics(alg, 25, fx.test, mopts);
  EXPECT_GT(series.back().test_accuracy, 0.6);
  EXPECT_LT(series.back().avg_loss, series.front().avg_loss);
}

TEST(Pdsl, LearnsUnderHeterogeneityAndNoise) {
  const auto fx = Fixture::make(5, "full", true);
  Pdsl alg(fx.env(0.05));
  MetricsOptions mopts;
  mopts.test_subsample = 120;
  mopts.eval_every = 30;
  const auto series = run_with_metrics(alg, 30, fx.test, mopts);
  EXPECT_GT(series.back().test_accuracy, 0.5);
}

TEST(Pdsl, ShapleyHooksArePopulatedAndEfficient) {
  const auto fx = Fixture::make(4, "full", true);
  Pdsl alg(fx.env(0.0));
  alg.run_round(1);
  ASSERT_EQ(alg.last_shapley().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    // Fully connected closed neighborhood of 4 agents.
    EXPECT_EQ(alg.last_shapley()[i].size(), 4u);
    EXPECT_EQ(alg.last_pi()[i].size(), 4u);
    for (double pi : alg.last_pi()[i]) {
      EXPECT_GE(pi, 0.0);
      EXPECT_TRUE(std::isfinite(pi));
    }
  }
  EXPECT_GT(alg.last_characteristic_evals(), 0u);
  EXPECT_GT(alg.observed_phi_hat_min(), 0.0);
  EXPECT_LE(alg.observed_phi_hat_min(), 1.0 + 1e-12);
}

TEST(Pdsl, ExactShapleyPathRuns) {
  const auto fx = Fixture::make(4, "ring", true);
  Env env = fx.env(0.0);
  env.hp.shapley_method = "exact";
  Pdsl alg(env);
  alg.run_round(1);
  // Ring closed neighborhood = 3 players -> exact enumeration = 7 coalitions
  // per agent at most (cached), and Shapley efficiency must hold per agent:
  // sum phi = v(full) - v(empty) = validation accuracy of full average.
  for (std::size_t i = 0; i < 4; ++i) {
    double total = 0.0;
    for (double p : alg.last_shapley()[i]) total += p;
    EXPECT_GE(total, -1e-9);
    EXPECT_LE(total, 1.0 + 1e-9);  // accuracy-valued characteristic function
  }
}

TEST(Pdsl, UniformAblationRunsAndNames) {
  const auto fx = Fixture::make(4, "ring", true);
  Pdsl uniform(fx.env(0.0), Pdsl::Options{true});
  EXPECT_EQ(uniform.name(), "PDSL-uniform");
  uniform.run_round(1);
  // Uniform weights: pi_k = (1/n) / w_ik.
  const auto hood = fx.topo.closed_neighborhood(0);
  for (std::size_t k = 0; k < hood.size(); ++k) {
    const double expect = (1.0 / static_cast<double>(hood.size())) / fx.mixing(0, hood[k]);
    EXPECT_NEAR(uniform.last_pi()[0][k], expect, 1e-9);
  }
}

TEST(Pdsl, AlternativeShapleyEstimatorsRun) {
  const auto fx = Fixture::make(4, "full", true);
  for (const std::string method : {"mc", "tmc", "stratified", "exact"}) {
    Env env = fx.env(0.05);
    env.hp.shapley_method = method;
    Pdsl alg(env);
    alg.run_round(1);
    for (double pi : alg.last_pi()[0]) EXPECT_TRUE(std::isfinite(pi)) << method;
  }
}

TEST(Pdsl, RobustVariantSurvivesByzantineAgents) {
  // Gradient-poisoning adversaries: 1 of 4 agents flips+amplifies the
  // cross-gradients it sends. The robust variant (loss characteristic +
  // ReLU normalization) must keep learning; see bench_shapley (weighting
  // section) for the full comparison.
  const auto fx = Fixture::make(4, "full", false, 57);
  Pdsl::Options popts;
  popts.relu_normalization = true;
  popts.loss_characteristic = true;
  Env env = fx.env(0.02);
  env.adversary.roles.push_back(
      {0, pdsl::sim::ByzMode::kSignFlip, 3.0, 1, pdsl::sim::kNoRoundLimit});
  Pdsl robust(env, popts);
  MetricsOptions mopts;
  mopts.test_subsample = 120;
  mopts.eval_every = 25;
  const auto series = run_with_metrics(robust, 25, fx.test, mopts);
  EXPECT_GT(series.back().test_accuracy, 0.5);
  for (float v : robust.models()[1]) EXPECT_TRUE(std::isfinite(v));
}

TEST(Pdsl, DeterministicGivenSeed) {
  const auto fx = Fixture::make(4, "ring", true);
  Pdsl a(fx.env(0.1));
  Pdsl b(fx.env(0.1));
  for (std::size_t t = 1; t <= 3; ++t) {
    a.run_round(t);
    b.run_round(t);
  }
  EXPECT_EQ(a.models(), b.models());
}

TEST(Pdsl, SurvivesMessageLoss) {
  const auto fx = Fixture::make(5, "full", true);
  Env env = fx.env(0.05);
  env.faults.drop_prob = 0.25;
  Pdsl alg(env);
  for (std::size_t t = 1; t <= 6; ++t) alg.run_round(t);
  for (const auto& m : alg.models()) {
    for (float v : m) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(alg.network().counters().dropped, 0u);
}

TEST(Pdsl, NoUnreadMailAfterRound) {
  const auto fx = Fixture::make(4, "full", false);
  Pdsl alg(fx.env(0.0));
  alg.run_round(1);
  EXPECT_EQ(alg.network().clear(), 0u) << "protocol left unread messages";
}

TEST(Pdsl, ConsensusTightensOverRounds) {
  const auto fx = Fixture::make(6, "full", false);
  Pdsl alg(fx.env(0.0));
  alg.run_round(1);
  const double early = sim::consensus_distance(alg.models());
  for (std::size_t t = 2; t <= 10; ++t) alg.run_round(t);
  const double late = sim::consensus_distance(alg.models());
  // Fully-connected metropolis averages to exact consensus every round.
  EXPECT_LE(late, early + 1e-4);
  EXPECT_LT(late, 1e-3);
}

// ---------------------------------------------------------------------------
// S-SHAP: batched coalition evaluation + adaptive sampling inside PDSL
// ---------------------------------------------------------------------------

TEST(Pdsl, BatchedEvalBitIdenticalToSequential) {
  // --shapley-eval batched must reproduce the default path to the bit: the
  // stacked GEMM scores the same coalition averages to the same doubles, so
  // phi, pi and every model float agree exactly.
  const auto fx = Fixture::make(4, "full", true);
  Env bat_env = fx.env(0.1);
  bat_env.hp.shapley_eval = "batched";
  Env seq_env = fx.env(0.1);
  seq_env.hp.shapley_eval = "sequential";  // the default is linear now
  Pdsl seq(seq_env);
  Pdsl bat(bat_env);
  for (std::size_t t = 1; t <= 3; ++t) {
    seq.run_round(t);
    bat.run_round(t);
  }
  EXPECT_EQ(seq.models(), bat.models());
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(seq.last_shapley()[i].size(), bat.last_shapley()[i].size());
    for (std::size_t k = 0; k < seq.last_shapley()[i].size(); ++k) {
      EXPECT_EQ(seq.last_shapley()[i][k], bat.last_shapley()[i][k]);
      EXPECT_EQ(seq.last_pi()[i][k], bat.last_pi()[i][k]);
    }
  }
  const auto stats = bat.shapley_round_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->coalition_evals, 0u);
  const auto seq_stats = seq.shapley_round_stats();
  ASSERT_TRUE(seq_stats.has_value());
  EXPECT_EQ(seq_stats->coalition_evals, stats->coalition_evals);
}

TEST(Pdsl, BatchedEvalBitIdenticalOnRobustVariant) {
  // Loss-valued characteristic (pdsl_robust) exercises the batched losses()
  // path; same bit-identity contract.
  const auto fx = Fixture::make(4, "full", true);
  Pdsl::Options popts;
  popts.relu_normalization = true;
  popts.loss_characteristic = true;
  Env bat_env = fx.env(0.0);
  bat_env.hp.shapley_eval = "batched";
  Env seq_env = fx.env(0.0);
  seq_env.hp.shapley_eval = "sequential";
  Pdsl seq(seq_env, popts);
  Pdsl bat(bat_env, popts);
  for (std::size_t t = 1; t <= 2; ++t) {
    seq.run_round(t);
    bat.run_round(t);
  }
  EXPECT_EQ(seq.models(), bat.models());
}

TEST(Pdsl, LinearEvalTracksSequentialAndIsDeterministic) {
  // --shapley-eval linear scores coalitions via first-layer linearity —
  // mathematically the same characteristic with ulp-level float differences,
  // so we demand (a) bit-determinism between two linear runs and (b) pi/model
  // closeness to the sequential path, not bit-identity.
  const auto fx = Fixture::make(4, "full", true);
  Env lin_env = fx.env(0.1);
  lin_env.hp.shapley_eval = "linear";
  Env seq_env = fx.env(0.1);
  seq_env.hp.shapley_eval = "sequential";
  Pdsl seq(seq_env);
  Pdsl lin(lin_env);
  Pdsl lin2(lin_env);
  for (std::size_t t = 1; t <= 3; ++t) {
    seq.run_round(t);
    lin.run_round(t);
    lin2.run_round(t);
  }
  EXPECT_EQ(lin.models(), lin2.models());  // determinism
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t k = 0; k < seq.last_pi()[i].size(); ++k) {
      EXPECT_EQ(lin.last_pi()[i][k], lin2.last_pi()[i][k]);
      EXPECT_NEAR(lin.last_pi()[i][k], seq.last_pi()[i][k], 0.15)
          << "agent " << i << " member " << k;
    }
    for (std::size_t j = 0; j < seq.models()[i].size(); ++j) {
      EXPECT_NEAR(lin.models()[i][j], seq.models()[i][j], 1e-2) << "agent " << i;
    }
  }
  const auto stats = lin.shapley_round_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->coalition_evals, seq.shapley_round_stats()->coalition_evals);
}

TEST(Pdsl, LinearEvalRunsOnRobustVariant) {
  // Loss-valued characteristic through coalition_losses(); finite weights,
  // deterministic across two runs.
  const auto fx = Fixture::make(4, "full", true);
  Pdsl::Options popts;
  popts.relu_normalization = true;
  popts.loss_characteristic = true;
  Env env = fx.env(0.0);
  env.hp.shapley_eval = "linear";
  Pdsl a(env, popts);
  Pdsl b(env, popts);
  for (std::size_t t = 1; t <= 2; ++t) {
    a.run_round(t);
    b.run_round(t);
  }
  EXPECT_EQ(a.models(), b.models());
  for (double pi : a.last_pi()[0]) EXPECT_TRUE(std::isfinite(pi));
}

TEST(Pdsl, AdaptiveMethodRunsAndRecordsBudget) {
  const auto fx = Fixture::make(4, "full", true);
  Env env = fx.env(0.0);
  env.hp.shapley_method = "adaptive";
  env.hp.shapley_permutations = 16;
  env.hp.shapley_min_permutations = 4;
  Pdsl alg(env);
  alg.run_round(1);
  const auto stats = alg.shapley_round_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->permutations_used, 4u * 4u);   // >= min floor per agent
  EXPECT_LE(stats->permutations_used, 4u * 16u);  // <= budget per agent
  for (double pi : alg.last_pi()[0]) EXPECT_TRUE(std::isfinite(pi));
}

TEST(Pdsl, ValidatesShapleyConfig) {
  const auto fx = Fixture::make(3, "ring", false);
  {
    Env env = fx.env();
    env.hp.shapley_eval = "bogus";
    EXPECT_THROW(Pdsl{env}, std::invalid_argument);
  }
  {
    Env env = fx.env();
    env.hp.shapley_method = "bogus";
    EXPECT_THROW(Pdsl{env}, std::invalid_argument);
  }
}

TEST(Pdsl, RefusesNeighborhoodsAbove63Players) {
  // 64 agents on a full graph: every closed neighborhood is a 64-player
  // Shapley game, over the uint64 coalition-mask cap. The constructor must
  // refuse loudly instead of overflowing masks mid-run.
  const auto fx = Fixture::make(64, "full", false);
  Env env = fx.env();
  EXPECT_THROW(Pdsl{env}, std::invalid_argument);
}
