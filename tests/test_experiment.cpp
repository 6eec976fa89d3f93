// Experiment driver: config plumbing, sigma calibration modes, the algorithm
// registry and reproducibility of full runs.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "core/replicate.hpp"
#include "kernels/backend.hpp"

using namespace pdsl;
using namespace pdsl::core;

namespace {
ExperimentConfig tiny(const std::string& algorithm) {
  ExperimentConfig cfg;
  cfg.algorithm = algorithm;
  cfg.dataset = "gaussian";
  cfg.model = "logistic";
  cfg.topology = "ring";
  cfg.agents = 4;
  cfg.rounds = 3;
  cfg.train_samples = 240;
  cfg.test_samples = 60;
  cfg.validation_samples = 40;
  cfg.image = 3;  // gaussian: dim = 9
  cfg.hp.batch = 8;
  cfg.hp.gamma = 0.05;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.sigma_mode = "none";
  cfg.metrics.test_subsample = 40;
  cfg.metrics.eval_every = 3;
  return cfg;
}
}  // namespace

TEST(Experiment, EveryRegisteredAlgorithmRuns) {
  for (const std::string name : {"pdsl", "pdsl_uniform", "pdsl_relu", "pdsl_robust", "dp_dpsgd",
                                 "muffliato", "dp_cga", "dp_netfleet", "dpsgd", "dmsgd",
                                 "async_dp_gossip", "dp_qgm"}) {
    const auto res = run_experiment(tiny(name));
    EXPECT_EQ(res.series.size(), 3u) << name;
    EXPECT_TRUE(std::isfinite(res.final_loss)) << name;
    EXPECT_GT(res.messages, 0u) << name;
  }
}

TEST(Experiment, UnknownNamesThrow) {
  auto cfg = tiny("fedsgd_prox");
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg = tiny("pdsl");
  cfg.dataset = "imagenet";
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg = tiny("pdsl");
  cfg.sigma_mode = "renyi";
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg = tiny("pdsl");
  cfg.backend = "vectorized";
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

// "" means blocked on every run: a run whose config leaves the backend empty
// does not inherit the backend an earlier caller selected.
TEST(Experiment, EmptyBackendRunsBlocked) {
  kernels::set_backend(kernels::Backend::kNaive);
  const auto cfg = tiny("pdsl");
  ASSERT_TRUE(cfg.backend.empty());
  static_cast<void>(run_experiment(cfg));
  EXPECT_EQ(kernels::backend(), kernels::Backend::kBlocked);
}

TEST(Experiment, PaperAlgorithmListIsStable) {
  const auto& algs = paper_algorithms();
  ASSERT_EQ(algs.size(), 5u);
  EXPECT_EQ(algs.back(), "pdsl");
}

TEST(Experiment, DeterministicGivenSeed) {
  const auto a = run_experiment(tiny("pdsl"));
  const auto b = run_experiment(tiny("pdsl"));
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.series[i].avg_loss, b.series[i].avg_loss);
  }
  auto cfg = tiny("pdsl");
  cfg.seed = 2;
  const auto c = run_experiment(cfg);
  EXPECT_NE(a.series.back().avg_loss, c.series.back().avg_loss);
}

TEST(Experiment, SigmaModes) {
  auto cfg = tiny("dp_dpsgd");
  cfg.sigma_mode = "none";
  EXPECT_DOUBLE_EQ(run_experiment(cfg).sigma, 0.0);

  cfg.sigma_mode = "fixed";
  cfg.hp.sigma = 0.37;
  EXPECT_DOUBLE_EQ(run_experiment(cfg).sigma, 0.37);

  cfg.sigma_mode = "dpsgd";
  cfg.epsilon = 0.1;
  cfg.delta = 1e-3;
  const double expect =
      std::sqrt(2.0 * std::log(1.25 / 1e-3)) * (2.0 * cfg.hp.clip / 8.0) / 0.1;
  EXPECT_NEAR(run_experiment(cfg).sigma, expect, 1e-9);

  cfg.sigma_mode = "theorem1";
  cfg.rounds = 1;
  const auto res = run_experiment(cfg);
  EXPECT_GT(res.sigma, expect);  // Theorem-1 bound is far more conservative
}

TEST(Experiment, SmallerEpsilonMeansMoreNoise) {
  auto cfg = tiny("dp_dpsgd");
  cfg.sigma_mode = "dpsgd";
  cfg.epsilon = 0.08;
  const double hi = run_experiment(cfg).sigma;
  cfg.epsilon = 0.3;
  const double lo = run_experiment(cfg).sigma;
  EXPECT_GT(hi, lo);
}

TEST(Experiment, ReportsSpectralAndHeterogeneity) {
  auto cfg = tiny("dpsgd");
  cfg.topology = "full";
  cfg.mu = 0.1;
  const auto res = run_experiment(cfg);
  EXPECT_NEAR(res.spectral.rho, 0.0, 1e-9);  // fully connected
  EXPECT_GT(res.heterogeneity, 0.0);

  cfg.iid = true;
  const auto iid_res = run_experiment(cfg);
  EXPECT_LT(iid_res.heterogeneity, res.heterogeneity);
}

TEST(Experiment, TopologiesOfThePaperAllRun) {
  for (const std::string topo : {"full", "bipartite", "ring"}) {
    auto cfg = tiny("pdsl");
    cfg.topology = topo;
    const auto res = run_experiment(cfg);
    EXPECT_EQ(res.series.size(), 3u) << topo;
    EXPECT_LT(res.spectral.sqrt_rho, 1.0) << topo;
  }
}

TEST(Experiment, ReplicationAggregates) {
  auto cfg = tiny("dpsgd");
  const auto rep = run_replicated(cfg, {1, 2, 3});
  EXPECT_EQ(rep.runs.size(), 3u);
  EXPECT_GE(rep.final_loss.max, rep.final_loss.mean);
  EXPECT_LE(rep.final_loss.min, rep.final_loss.mean);
  EXPECT_GE(rep.final_loss.stddev, 0.0);
  EXPECT_THROW(run_replicated(cfg, {}), std::invalid_argument);

  const auto agg = Aggregate::of({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(agg.mean, 2.0);
  EXPECT_DOUBLE_EQ(agg.min, 1.0);
  EXPECT_DOUBLE_EQ(agg.max, 3.0);
  EXPECT_NEAR(agg.stddev, 1.0, 1e-12);
}

TEST(Experiment, ReplicationRefusesPerRunFiles) {
  // Each seed's run would reopen the file, so only the last run would be
  // kept (or, for resume_from, every seed would resume one run's state).
  using File = std::string ExperimentConfig::*;
  const std::pair<std::string, File> files[] = {
      {"ledger_out", &ExperimentConfig::ledger_out},
      {"checkpoint_path", &ExperimentConfig::checkpoint_path},
      {"resume_from", &ExperimentConfig::resume_from}};
  for (const auto& [key, file] : files) {
    SCOPED_TRACE(key);
    auto cfg = tiny("dpsgd");
    cfg.*file = "per_run.out";
    try {
      (void)run_replicated(cfg, {1, 2});
      ADD_FAILURE() << "run_replicated accepted " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find('"' + key + '"'), std::string::npos) << e.what();
    }
  }
}

TEST(Experiment, PartitionModes) {
  auto cfg = tiny("dpsgd");
  cfg.dataset = "mnist_like";
  cfg.image = 6;
  cfg.train_samples = 400;
  cfg.partition = "shards";
  const auto shards = run_experiment(cfg);
  cfg.partition = "dirichlet";
  cfg.mu = 100.0;  // nearly IID
  const auto mild = run_experiment(cfg);
  EXPECT_GT(shards.heterogeneity, mild.heterogeneity);
  cfg.partition = "zipf";
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(Experiment, PoisonedAgentsHurtButRun) {
  auto cfg = tiny("pdsl");
  cfg.rounds = 8;
  cfg.hp.gamma = 0.1;
  const auto clean = run_experiment(cfg);
  cfg.corrupt_agents = 2;
  const auto poisoned = run_experiment(cfg);
  EXPECT_GT(poisoned.final_loss, clean.final_loss * 0.9);
  cfg.corrupt_agents = 4;  // == agents
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(Experiment, NoiseScaleMultipliesSigma) {
  auto cfg = tiny("dp_dpsgd");
  cfg.sigma_mode = "fixed";
  cfg.hp.sigma = 0.4;
  cfg.noise_scale = 0.5;
  EXPECT_DOUBLE_EQ(run_experiment(cfg).sigma, 0.2);
  cfg.sigma_mode = "none";
  EXPECT_DOUBLE_EQ(run_experiment(cfg).sigma, 0.0);
}

TEST(Experiment, MnistLikeCnnPathRuns) {
  auto cfg = tiny("pdsl");
  cfg.dataset = "mnist_like";
  cfg.model = "mnist_cnn";
  cfg.image = 12;
  cfg.rounds = 1;
  cfg.train_samples = 160;
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.series.size(), 1u);
  EXPECT_GT(res.model_dim, 100u);
}

TEST(Experiment, CifarLikeCnnPathRuns) {
  auto cfg = tiny("dp_dpsgd");
  cfg.dataset = "cifar_like";
  cfg.model = "cifar_cnn";
  cfg.image = 12;
  cfg.rounds = 1;
  cfg.train_samples = 160;
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.series.size(), 1u);
}

TEST(Experiment, PhaseTimingsAccountForRoundTime) {
  const auto res = run_experiment(tiny("pdsl"));
  ASSERT_EQ(res.series.size(), 3u);
  for (const auto& rm : res.series) {
    const double phases = rm.phases.total();
    // Phase scopes live strictly inside run_round, so the sum can't exceed
    // the round's wall time by more than timer noise...
    EXPECT_GT(rm.round_s, 0.0);
    EXPECT_LE(phases, rm.round_s * 1.05 + 1e-4);
    // ...and for pdsl the five phases cover the bulk of the round's work
    // (the rest is loop scaffolding and message passing). Conservative bound
    // so a loaded CI machine doesn't flake.
    EXPECT_GE(phases, rm.round_s * 0.25);
    // The expensive phases actually registered time.
    EXPECT_GT(rm.phases.shapley_s, 0.0);
    EXPECT_GT(rm.phases.local_grad_s, 0.0);
  }
  // Run totals are the per-round sums.
  double shapley = 0.0;
  for (const auto& rm : res.series) shapley += rm.phases.shapley_s;
  EXPECT_DOUBLE_EQ(res.phase_totals.shapley_s, shapley);
}

TEST(Experiment, PhaseTimingsPopulatedForBaselines) {
  for (const std::string name : {"dp_dpsgd", "muffliato", "dp_cga", "dp_netfleet"}) {
    const auto res = run_experiment(tiny(name));
    EXPECT_GT(res.phase_totals.total(), 0.0) << name;
  }
}

// S-BENCH360 satellite: the per-round RDP spend column. One Gaussian release
// per agent per round at fixed noise means the accountant's epsilon must grow
// monotonically with the round count — and stay exactly zero without noise.
TEST(Experiment, EpsilonSpentIsMonotoneAcrossRounds) {
  auto cfg = tiny("pdsl");
  cfg.sigma_mode = "fixed";
  cfg.hp.sigma = 0.05;
  cfg.rounds = 4;
  const auto res = run_experiment(cfg);
  ASSERT_EQ(res.series.size(), cfg.rounds);
  double prev = 0.0;
  for (const auto& rm : res.series) {
    EXPECT_GE(rm.epsilon_spent, prev);
    prev = rm.epsilon_spent;
  }
  EXPECT_GT(prev, 0.0);
  EXPECT_DOUBLE_EQ(res.epsilon_spent, res.series.back().epsilon_spent);
}

TEST(Experiment, EpsilonSpentIsZeroWithoutNoise) {
  auto cfg = tiny("pdsl");  // tiny() uses sigma_mode = "none"
  const auto res = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(res.epsilon_spent, 0.0);
  for (const auto& rm : res.series) EXPECT_DOUBLE_EQ(rm.epsilon_spent, 0.0);
}
