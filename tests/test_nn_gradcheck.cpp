// Finite-difference gradient checks for every layer through the full
// model/loss pipeline — the strongest correctness guarantee the NN substrate
// has, since every algorithm in the paper consumes these gradients.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"

using namespace pdsl;
using namespace pdsl::nn;

namespace {

/// Compare analytic flat gradient of mean loss against central differences.
/// Checks a strided subset of coordinates (full check is O(d) forwards).
void gradcheck(Model& model, const Tensor& x, const std::vector<int>& y, double eps = 1e-2,
               double rel_tol = 8e-2, std::size_t stride = 7) {
  model.loss_and_backward(x, y);
  const auto analytic = model.flat_grad();
  auto params = model.flat_params();

  double max_rel = 0.0;
  std::size_t checked = 0;
  for (std::size_t k = 0; k < params.size(); k += stride) {
    const float orig = params[k];
    params[k] = orig + static_cast<float>(eps);
    model.set_flat_params(params);
    const double up = model.loss(x, y);
    params[k] = orig - static_cast<float>(eps);
    model.set_flat_params(params);
    const double down = model.loss(x, y);
    params[k] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    const double denom = std::max({std::abs(numeric), std::abs(double(analytic[k])), 1e-3});
    max_rel = std::max(max_rel, std::abs(numeric - analytic[k]) / denom);
    ++checked;
  }
  model.set_flat_params(params);
  EXPECT_GE(checked, 4u);
  EXPECT_LT(max_rel, rel_tol) << "max relative gradient error too large";
}

double sum(const Tensor& t) {
  double acc = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) acc += t[i];
  return acc;
}

Tensor random_input(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  rng.fill_normal(t.vec(), 0.0, 1.0);
  return t;
}

}  // namespace

TEST(GradCheck, LinearSoftmax) {
  Rng rng(1);
  Model m;
  m.emplace<Linear>(6, 4);
  m.init(rng);
  const Tensor x = random_input(Shape{5, 6}, rng);
  gradcheck(m, x, {0, 1, 2, 3, 0});
}

TEST(GradCheck, ReluMlp) {
  // ReLU kinks can upset FD at exactly-zero activations; with random floats
  // the probability is negligible and tolerance absorbs the rest.
  Rng rng(3);
  Model m;
  m.emplace<Linear>(6, 10);
  m.emplace<ReLU>();
  m.emplace<Linear>(10, 4);
  m.init(rng);
  const Tensor x = random_input(Shape{6, 6}, rng);
  gradcheck(m, x, {3, 2, 1, 0, 1, 2});
}

TEST(GradCheck, ConvPoolStack) {
  // No activation between conv and pool: FD steps that cross a ReLU kink
  // are PaperMnistCnnShape's concern, and its looser tolerance absorbs them.
  Rng rng(4);
  Model m;
  m.emplace<Conv2D>(1, 3, 3, 1);
  m.emplace<MaxPool2D>();
  m.emplace<Flatten>();
  m.emplace<Linear>(3 * 4 * 4, 3);
  m.init(rng);
  const Tensor x = random_input(Shape{2, 1, 8, 8}, rng);
  gradcheck(m, x, {0, 2}, 1e-2, 1e-1, 11);
}

TEST(GradCheck, PaperMnistCnnShape) {
  Rng rng(5);
  Model m;
  m.emplace<Conv2D>(1, 4, 3, 1);
  m.emplace<ReLU>();
  m.emplace<MaxPool2D>();
  m.emplace<Conv2D>(4, 6, 3, 1);
  m.emplace<ReLU>();
  m.emplace<MaxPool2D>();
  m.emplace<Flatten>();
  m.emplace<Linear>(6 * 3 * 3, 5);
  m.init(rng);
  const Tensor x = random_input(Shape{2, 1, 12, 12}, rng);
  gradcheck(m, x, {1, 4}, 1e-2, 1.5e-1, 29);
}

TEST(GradCheck, InputGradientOfLinearLayer) {
  // backward() must also produce correct input gradients (cross-gradients in
  // the paper differentiate w.r.t. received models, so input grads flow
  // through every layer).
  Rng rng(6);
  Linear lin(4, 3);
  lin.init(rng);
  Tensor x = random_input(Shape{2, 4}, rng);
  Tensor out = lin.forward(x);
  Tensor gout(Shape{2, 3}, 1.0f);
  const Tensor gin = lin.backward(gout);

  // FD on a scalar function s(x) = sum(forward(x)).
  const double eps = 1e-3;
  for (std::size_t k = 0; k < x.numel(); k += 3) {
    const float orig = x[k];
    x[k] = orig + static_cast<float>(eps);
    const double up = sum(lin.forward(x));
    x[k] = orig - static_cast<float>(eps);
    const double down = sum(lin.forward(x));
    x[k] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(numeric, gin[k], 1e-2);
  }
}
