// Cross-cutting protocol invariants, checked over (algorithm x topology)
// sweeps: conservation of the parameter mean under pure gossip, exact message
// counts per protocol, bounded momentum, and empirical L2 sensitivity of the
// clipped gradient (the quantity Theorem 1's proof bounds by 2C).

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/vec_math.hpp"
#include "core/experiment.hpp"
#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "dp/mechanism.hpp"
#include "nn/model_zoo.hpp"

using namespace pdsl;

namespace {

algos::Env make_env(const graph::Graph& topo, const graph::Metropolis& mixing,
                    const data::Dataset& train, const data::Dataset& validation,
                    const nn::Model& model,
                    const std::vector<std::vector<std::size_t>>& partition, double sigma) {
  algos::Env env;
  env.topo = &topo;
  env.mixing = &mixing;
  env.train = &train;
  env.validation = &validation;
  env.model_template = &model;
  env.partition = &partition;
  env.hp.gamma = 0.05;
  env.hp.alpha = 0.5;
  env.hp.clip = 1.0;
  env.hp.sigma = sigma;
  env.hp.batch = 8;
  env.hp.shapley_permutations = 3;
  env.hp.validation_batch = 16;
  env.seed = 5;
  return env;
}

}  // namespace

class AlgoTopoSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(AlgoTopoSweep, RunsAndStaysFiniteWithMessages) {
  const auto [algo, topo] = GetParam();
  core::ExperimentConfig cfg;
  cfg.algorithm = algo;
  cfg.dataset = "gaussian";
  cfg.model = "logistic";
  cfg.topology = topo;
  cfg.agents = 6;
  cfg.rounds = 4;
  cfg.train_samples = 300;
  cfg.test_samples = 60;
  cfg.validation_samples = 40;
  cfg.image = 3;
  cfg.hp.batch = 8;
  cfg.hp.gamma = 0.05;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.sigma_mode = "fixed";
  cfg.hp.sigma = 0.1;
  cfg.metrics.eval_every = 4;
  const auto res = core::run_experiment(cfg);
  EXPECT_EQ(res.series.size(), 4u);
  for (const auto& m : res.series) {
    EXPECT_TRUE(std::isfinite(m.avg_loss));
    EXPECT_TRUE(std::isfinite(m.consensus));
  }
  EXPECT_GT(res.messages, 0u);
  EXPECT_LT(res.spectral.sqrt_rho, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AlgoTopoSweep,
    ::testing::Combine(::testing::Values("pdsl", "dp_dpsgd", "muffliato", "dp_cga",
                                         "dp_netfleet"),
                       ::testing::Values("full", "bipartite", "ring", "star")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(ProtocolInvariants, PdslMessageCountPerRoundIsExact) {
  // PDSL per round on a graph with E undirected edges sends:
  //   model broadcast:        2E
  //   cross-gradient returns: 2E (minus drops; none here)
  //   u-hat mixing:           2E
  //   x-hat mixing:           2E
  Rng rng(1);
  auto pool = data::make_gaussian_mixture(260, 3, 4, 2.0, 0.5, 2);
  auto [train, validation] = data::split_off(pool, 60, rng);
  const auto topo = graph::Graph::ring(5);
  const auto mixing = graph::Metropolis(topo);
  const nn::Model model = nn::make_logistic(4, 3);
  const auto partition = data::iid_partition(train, 5, rng);
  auto env = make_env(topo, mixing, train, validation, model, partition, 0.0);
  core::Pdsl alg(env);
  alg.run_round(1);
  EXPECT_EQ(alg.network().counters().messages, 8u * topo.num_edges());
  alg.run_round(2);
  EXPECT_EQ(alg.network().counters().messages, 16u * topo.num_edges());
}

TEST(ProtocolInvariants, GossipPreservesParameterMean) {
  // Eqs. 24-25: with W doubly stochastic, the average of x-hat equals the
  // average of the mixed x. We verify through PDSL with gamma tiny and no
  // noise: the parameter mean must move only by the (tiny) gradient term.
  Rng rng(3);
  auto pool = data::make_gaussian_mixture(260, 3, 4, 2.0, 0.5, 4);
  auto [train, validation] = data::split_off(pool, 60, rng);
  const auto topo = graph::Graph::bipartite(6);
  const auto mixing = graph::Metropolis(topo);
  const nn::Model model = nn::make_logistic(4, 3);
  const auto partition = data::iid_partition(train, 6, rng);
  auto env = make_env(topo, mixing, train, validation, model, partition, 0.0);
  env.hp.gamma = 1e-8;
  core::Pdsl alg(env);
  const auto mean_before = sim::average_model(alg.models());
  alg.run_round(1);
  const auto mean_after = sim::average_model(alg.models());
  EXPECT_LT(l2_distance(mean_before, mean_after), 1e-4);
}

TEST(ProtocolInvariants, EmpiricalSensitivityOfClippedGradientIsBounded) {
  // Theorem 1 rests on: swapping one example changes the clipped mini-batch
  // gradient by at most 2C in L2. Check empirically on a real model: gradient
  // of batch B vs batch B with one replaced sample, both clipped to C.
  Rng rng(7);
  nn::Model model = nn::make_mlp(6, 10, 4);
  model.init(rng);
  const auto ds = data::make_gaussian_mixture(100, 4, 6, 2.0, 0.5, 8);
  const auto params = model.flat_params();
  const double C = 0.5;
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<std::size_t> idx(8);
    for (auto& v : idx) {
      v = static_cast<std::size_t>(rng.uniform_int(0, 99));
    }
    auto idx2 = idx;
    idx2[0] = static_cast<std::size_t>(rng.uniform_int(0, 99));  // adjacent batch

    model.set_flat_params(params);
    model.loss_and_backward(ds.batch_features(idx), ds.batch_labels(idx));
    auto g1 = model.flat_grad();
    dp::clip_l2(g1, C);
    model.loss_and_backward(ds.batch_features(idx2), ds.batch_labels(idx2));
    auto g2 = model.flat_grad();
    dp::clip_l2(g2, C);
    EXPECT_LE(l2_distance(g1, g2), 2.0 * C + 1e-6);
  }
}

TEST(ProtocolInvariants, MomentumStaysBoundedUnderClippedGradients) {
  // u_t = sum alpha^k g-bar: with ||g-bar|| <= B_g, ||u|| <= B_g/(1-alpha)
  // up to the pi-weight amplification. Empirically the models must not blow
  // up over many rounds even with adversarial noise.
  Rng rng(9);
  auto pool = data::make_gaussian_mixture(300, 3, 4, 2.0, 0.5, 10);
  auto [train, validation] = data::split_off(pool, 60, rng);
  const auto topo = graph::Graph::full(5);
  const auto mixing = graph::Metropolis(topo);
  const nn::Model model = nn::make_logistic(4, 3);
  const auto partition = data::iid_partition(train, 5, rng);
  auto env = make_env(topo, mixing, train, validation, model, partition, 1.0);  // heavy noise
  core::Pdsl alg(env);
  for (std::size_t t = 1; t <= 30; ++t) alg.run_round(t);
  for (const auto& x : alg.models()) {
    EXPECT_LT(l2_norm(x), 1e4);
    for (float v : x) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ProtocolInvariants, DropProbZeroMeansNoDrops) {
  core::ExperimentConfig cfg;
  cfg.algorithm = "pdsl";
  cfg.dataset = "gaussian";
  cfg.model = "logistic";
  cfg.topology = "ring";
  cfg.agents = 4;
  cfg.rounds = 2;
  cfg.train_samples = 200;
  cfg.test_samples = 40;
  cfg.validation_samples = 40;
  cfg.image = 3;
  cfg.hp.batch = 8;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.sigma_mode = "none";
  cfg.metrics.eval_every = 2;
  const auto res = core::run_experiment(cfg);
  // 8 messages per edge per round on the ring (4 edges): 2 rounds.
  EXPECT_EQ(res.messages, 2u * 8u * 4u);
}
