// Privacy attacks: label leakage from shared gradients (the risk motivating
// the paper's DP treatment) and loss-threshold membership inference. The key
// property: attacks succeed against unprotected gradients/models and degrade
// toward chance as DP noise grows.

#include <gtest/gtest.h>

#include <numeric>

#include "attack/label_inference.hpp"
#include "attack/membership.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"
#include "tensor/ops.hpp"

using namespace pdsl;
using namespace pdsl::attack;

namespace {

/// The whole dataset as one batch.
Tensor all_features(const data::Dataset& ds) {
  std::vector<std::size_t> idx(ds.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return ds.batch_features(idx);
}

/// A model trained a little so gradients carry label structure.
nn::Model trained_model(const data::Dataset& ds, int steps, std::uint64_t seed) {
  Rng rng(seed);
  nn::Model m = nn::make_mlp(ds.sample_numel(), 16, ds.num_classes());
  m.init(rng);
  const Tensor x = all_features(ds);
  const auto y = ds.labels();
  for (int s = 0; s < steps; ++s) {
    m.loss_and_backward(x, y);
    auto params = m.flat_params();
    const auto grad = m.flat_grad();
    for (std::size_t i = 0; i < params.size(); ++i) params[i] -= 0.3f * grad[i];
    m.set_flat_params(params);
  }
  return m;
}

}  // namespace

TEST(LabelInference, ScoresComeFromFinalBiasSegment) {
  std::vector<float> grad(20, 0.0f);
  grad[17] = -0.9f;  // classes = 3 -> trailing segment [17, 18, 19]
  grad[18] = 0.2f;
  grad[19] = 0.1f;
  const auto scores = label_scores_from_gradient(grad, 3);
  EXPECT_NEAR(scores[0], 0.9, 1e-6);  // float->double widening
  EXPECT_EQ(infer_dominant_label(grad, 3), 0u);
  EXPECT_THROW(label_scores_from_gradient({1.0f}, 3), std::invalid_argument);
}

TEST(LabelInference, UnprotectedGradientsLeakLabels) {
  const auto ds = data::make_gaussian_mixture(400, 5, 8, 2.0, 0.6, 1);
  const auto model = trained_model(ds, 3, 2);
  const auto res = label_leakage_experiment(model, ds, 8, 1.0, 0.0, 60, Rng(3));
  // Softmax bias gradients reveal the single-class batch almost perfectly.
  EXPECT_GT(res.hit_rate, 0.9);
  EXPECT_DOUBLE_EQ(res.chance, 0.2);
}

TEST(LabelInference, DpNoiseDegradesTheAttackMonotonically) {
  const auto ds = data::make_gaussian_mixture(400, 5, 8, 2.0, 0.6, 4);
  const auto model = trained_model(ds, 3, 5);
  const auto clean = label_leakage_experiment(model, ds, 8, 1.0, 0.0, 60, Rng(6));
  const auto mild = label_leakage_experiment(model, ds, 8, 1.0, 0.05, 60, Rng(6));
  const auto heavy = label_leakage_experiment(model, ds, 8, 1.0, 1.0, 60, Rng(6));
  EXPECT_GE(clean.hit_rate, mild.hit_rate - 0.1);
  EXPECT_GT(mild.hit_rate, heavy.hit_rate);
  // Heavy noise pushes the attacker to ~chance.
  EXPECT_LT(heavy.hit_rate, 0.45);
}

TEST(LabelInference, Validation) {
  const auto ds = data::make_gaussian_mixture(50, 3, 4, 2.0, 0.5, 7);
  const auto model = trained_model(ds, 1, 8);
  EXPECT_THROW(label_leakage_experiment(model, ds, 4, 1.0, 0.0, 0, Rng(9)),
               std::invalid_argument);
}

TEST(Membership, FromLossesClosedCases) {
  // Perfectly separated: members all lower loss -> AUC 1, advantage 1.
  const auto perfect = membership_from_losses({0.1, 0.2}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(perfect.auc, 1.0);
  EXPECT_DOUBLE_EQ(perfect.advantage, 1.0);
  // Identical distributions: AUC 0.5, advantage 0.
  const auto none = membership_from_losses({1.0, 2.0}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(none.auc, 0.5);
  EXPECT_DOUBLE_EQ(none.advantage, 0.0);
  EXPECT_THROW(membership_from_losses({}, {1.0}), std::invalid_argument);
}

TEST(Membership, OverfitModelLeaksMembership) {
  // Train hard on a small member set; the held-out set must show higher loss.
  Rng rng(10);
  const auto members = data::make_gaussian_mixture(60, 4, 6, 1.2, 1.2, 11);
  const auto nonmembers = data::make_gaussian_mixture(60, 4, 6, 1.2, 1.2, 12);
  nn::Model m = nn::make_mlp(6, 32, 4);
  m.init(rng);
  const Tensor x = all_features(members);
  const auto y = members.labels();
  for (int s = 0; s < 300; ++s) {
    m.loss_and_backward(x, y);
    auto params = m.flat_params();
    const auto grad = m.flat_grad();
    for (std::size_t i = 0; i < params.size(); ++i) params[i] -= 0.5f * grad[i];
    m.set_flat_params(params);
  }
  const auto res = membership_inference(m, m.flat_params(), members, nonmembers);
  EXPECT_GT(res.auc, 0.7);
  EXPECT_GT(res.advantage, 0.2);
  EXPECT_LT(res.mean_member_loss, res.mean_nonmember_loss);
}

TEST(Membership, FreshModelLeaksNothing) {
  Rng rng(13);
  const auto members = data::make_gaussian_mixture(80, 4, 6, 1.5, 1.0, 14);
  const auto nonmembers = data::make_gaussian_mixture(80, 4, 6, 1.5, 1.0, 15);
  nn::Model m = nn::make_mlp(6, 16, 4);
  m.init(rng);
  const auto res = membership_inference(m, m.flat_params(), members, nonmembers);
  // An untrained model has no member/non-member asymmetry in expectation;
  // at 80 samples a side the empirical AUC still wobbles around 0.5.
  EXPECT_NEAR(res.auc, 0.5, 0.15);
  EXPECT_LT(res.advantage, 0.3);
}
