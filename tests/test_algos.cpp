// Baseline algorithms: each must run its protocol over the network, keep
// models finite, and actually learn on an easy (IID, separable, no-noise)
// problem. Relative behaviours under heterogeneity are covered by the
// integration tests in test_pdsl.cpp / test_experiment.cpp.

#include <gtest/gtest.h>

#include <cmath>

#include "algos/dp_cga.hpp"
#include "algos/dp_dpsgd.hpp"
#include "algos/dp_netfleet.hpp"
#include "algos/async_gossip.hpp"
#include "algos/dpsgd.hpp"
#include "algos/muffliato.hpp"
#include "algos/qgm.hpp"
#include "common/vec_math.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"

using namespace pdsl;
using namespace pdsl::algos;

namespace {

/// A reusable bundle of everything an Env points to.
struct Fixture {
  data::Dataset train;
  data::Dataset test;
  graph::Graph topo;
  graph::Metropolis mixing;
  nn::Model model;
  std::vector<std::vector<std::size_t>> partition;
  data::Dataset validation;

  static Fixture make(std::size_t agents, double sigma, bool iid = true,
                      const std::string& topology = "full") {
    Rng rng(99);
    auto pool = data::make_gaussian_mixture(700, 4, 6, 2.5, 0.5, 21);
    auto [rest, test] = data::split_off(pool, 100, rng);
    auto [train, validation] = data::split_off(rest, 100, rng);
    auto topo = graph::Graph::make(topology, agents, {&rng});
    auto mixing = graph::Metropolis(topo);
    nn::Model model = nn::make_mlp(6, 12, 4);
    std::vector<std::vector<std::size_t>> partition;
    if (iid) {
      partition = data::iid_partition(train, agents, rng);
    } else {
      data::PartitionOptions opts;
      opts.mu = 0.2;
      partition = data::dirichlet_partition(train, agents, opts, rng);
    }
    (void)sigma;
    return Fixture{std::move(train), std::move(test),     std::move(topo), std::move(mixing),
                   std::move(model), std::move(partition), std::move(validation)};
  }

  Env env(double sigma, double gamma = 0.05) const {
    Env e;
    e.topo = &topo;
    e.mixing = &mixing;
    e.train = &train;
    e.validation = &validation;
    e.model_template = &model;
    e.partition = &partition;
    e.hp.gamma = gamma;
    e.hp.alpha = 0.5;
    e.hp.clip = 5.0;
    e.hp.sigma = sigma;
    e.hp.batch = 16;
    e.seed = 7;
    return e;
  }
};

double chance_level() { return 1.0 / 4.0; }

template <typename Alg>
double final_accuracy(const Fixture& fx, const Env& env, std::size_t rounds) {
  Alg alg(env);
  MetricsOptions mopts;
  mopts.test_subsample = 100;
  mopts.eval_every = rounds;  // only at the end
  const auto series = run_with_metrics(alg, rounds, fx.test, mopts);
  return series.back().test_accuracy;
}

}  // namespace

TEST(Baselines, DpsgdLearnsIidWithoutNoise) {
  const auto fx = Fixture::make(5, 0.0);
  EXPECT_GT(final_accuracy<DPSGD>(fx, fx.env(0.0), 40), 0.6);
}

TEST(Baselines, DmsgdLearnsIidWithoutNoise) {
  const auto fx = Fixture::make(5, 0.0);
  EXPECT_GT(final_accuracy<DMSGD>(fx, fx.env(0.0), 40), 0.6);
}

TEST(Baselines, DpDpsgdLearnsWithModerateNoise) {
  const auto fx = Fixture::make(5, 0.0);
  EXPECT_GT(final_accuracy<DpDpsgd>(fx, fx.env(0.05), 40), 0.5);
}

TEST(Baselines, MuffliatoLearns) {
  const auto fx = Fixture::make(5, 0.0);
  EXPECT_GT(final_accuracy<Muffliato>(fx, fx.env(0.05), 40), 0.5);
}

TEST(Baselines, DpCgaLearns) {
  const auto fx = Fixture::make(5, 0.0);
  EXPECT_GT(final_accuracy<DpCga>(fx, fx.env(0.05), 30), 0.5);
}

TEST(Baselines, DpNetFleetLearns) {
  const auto fx = Fixture::make(5, 0.0);
  EXPECT_GT(final_accuracy<DpNetFleet>(fx, fx.env(0.05, 0.02), 30), 0.5);
}

TEST(Baselines, AsyncDpGossipLearns) {
  const auto fx = Fixture::make(5, 0.0);
  EXPECT_GT(final_accuracy<AsyncDpGossip>(fx, fx.env(0.05), 60), 0.5);
}

TEST(Baselines, AsyncEventsAreCounted) {
  const auto fx = Fixture::make(5, 0.0);
  AsyncDpGossip alg(fx.env(0.0));
  alg.run_round(1);
  EXPECT_EQ(alg.events(), 5u);
  alg.run_round(2);
  EXPECT_EQ(alg.events(), 10u);
}

TEST(Baselines, DpQgmLearns) {
  const auto fx = Fixture::make(5, 0.0);
  EXPECT_GT(final_accuracy<DpQgm>(fx, fx.env(0.05), 40), 0.5);
}

TEST(Baselines, NoiseHurtsDpDpsgd) {
  // Summed over five seeds: a single seed compares two draws, not two noise
  // levels (seed 7's clean run stops at 0.884 while its sigma = 3 run can
  // reach 0.93; across seeds 1-20 clean wins 19 times, by 0.14 on average).
  const auto fx = Fixture::make(5, 0.0);
  double clean = 0.0, noisy = 0.0;
  for (std::uint64_t seed = 7; seed < 12; ++seed) {
    Env clean_env = fx.env(0.0), noisy_env = fx.env(3.0);
    clean_env.seed = noisy_env.seed = seed;
    clean += final_accuracy<DpDpsgd>(fx, clean_env, 30);
    noisy += final_accuracy<DpDpsgd>(fx, noisy_env, 30);
  }
  EXPECT_GT(clean, noisy);
}

TEST(Baselines, ModelsStayFiniteUnderHeavyNoise) {
  const auto fx = Fixture::make(4, 0.0);
  DpDpsgd alg(fx.env(10.0));
  for (std::size_t t = 1; t <= 10; ++t) alg.run_round(t);
  for (const auto& m : alg.models()) {
    for (float v : m) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Baselines, MessageAccountingIsPlausible) {
  const auto fx = Fixture::make(6, 0.0);
  DPSGD alg(fx.env(0.0));
  alg.run_round(1);
  // Fully connected M=6: model mixing sends 6*5 messages per round.
  EXPECT_EQ(alg.network().messages_sent(), 30u);
  DpCga cga(fx.env(0.0));
  cga.run_round(1);
  // CGA additionally exchanges models and returns cross-gradients: 3 * 30.
  EXPECT_EQ(cga.network().messages_sent(), 90u);
}

TEST(Baselines, GossipAveragingConvergesToConsensus) {
  // With gamma tiny and zero noise, repeated DPSGD rounds must contract the
  // consensus distance on a ring (spectral gap argument).
  const auto fx = Fixture::make(6, 0.0, true, "ring");
  auto env = fx.env(0.0, 1e-6);
  DPSGD alg(env);
  alg.run_round(1);
  // Force disagreement by measuring after first round, then mix more.
  const double before = sim::consensus_distance(alg.models());
  for (std::size_t t = 2; t <= 12; ++t) alg.run_round(t);
  const double after = sim::consensus_distance(alg.models());
  EXPECT_LE(after, before + 1e-6);
}

TEST(Baselines, DropoutLinksDoNotCrash) {
  const auto fx = Fixture::make(5, 0.0);
  Env env = fx.env(0.1);
  env.faults.drop_prob = 0.3;
  DpCga alg(env);
  for (std::size_t t = 1; t <= 5; ++t) alg.run_round(t);
  for (const auto& m : alg.models()) {
    for (float v : m) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(alg.network().messages_dropped(), 0u);
}

TEST(Baselines, EnvValidation) {
  const auto fx = Fixture::make(4, 0.0);
  Env env = fx.env(0.0);
  env.train = nullptr;
  EXPECT_THROW(DPSGD{env}, std::invalid_argument);
  env = fx.env(0.0);
  env.hp.alpha = 1.0;
  EXPECT_THROW(DMSGD{env}, std::invalid_argument);
  env = fx.env(0.0);
  env.hp.gamma = 0.0;
  EXPECT_THROW(DPSGD{env}, std::invalid_argument);
}
