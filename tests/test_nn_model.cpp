// Model-level behaviour: flat parameter views, cloning, the loss head, and
// end-to-end learning on a separable toy problem. Also: Model::backward's
// parameter gradients against a full layer-by-layer chain (it stops at the
// lowest parametrized layer), the packed-mask ReLU against the reference
// semantics on special values, MaxPool2D windows below -1e30 and ties, and
// the caller's batch surviving the moving layer chain.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "kernels/backend.hpp"
#include "nn/activations.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pooling.hpp"

using namespace pdsl;
using namespace pdsl::nn;

namespace {
/// The whole dataset as one batch.
Tensor all_features(const data::Dataset& ds) {
  std::vector<std::size_t> idx(ds.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return ds.batch_features(idx);
}

Model tiny_mlp(Rng& rng) {
  Model m;
  m.emplace<Linear>(4, 8);
  m.emplace<ReLU>();
  m.emplace<Linear>(8, 3);
  m.init(rng);
  return m;
}
}  // namespace

TEST(Model, FlatParamsRoundTrip) {
  Rng rng(1);
  Model m = tiny_mlp(rng);
  auto flat = m.flat_params();
  EXPECT_EQ(flat.size(), m.num_params());
  EXPECT_EQ(flat.size(), 4u * 8 + 8 + 8 * 3 + 3);
  for (auto& v : flat) v += 0.5f;
  m.set_flat_params(flat);
  EXPECT_EQ(m.flat_params(), flat);
  flat.pop_back();
  EXPECT_THROW(m.set_flat_params(flat), std::invalid_argument);
}

TEST(Model, CopyIsDeep) {
  Rng rng(2);
  Model a = tiny_mlp(rng);
  Model b = a;
  auto flat = a.flat_params();
  flat[0] += 1.0f;
  a.set_flat_params(flat);
  EXPECT_NE(a.flat_params()[0], b.flat_params()[0]);
}

TEST(Model, ZeroGradClearsAccumulation) {
  Rng rng(3);
  Model m = tiny_mlp(rng);
  Tensor x(Shape{2, 4}, 0.5f);
  m.loss_and_backward(x, {0, 1});
  const auto g1 = m.flat_grad();
  m.loss_and_backward(x, {0, 1});  // zero_grad is internal to loss_and_backward
  const auto g2 = m.flat_grad();
  for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_FLOAT_EQ(g1[i], g2[i]);
}

TEST(Model, LossDecreasesUnderSgd) {
  Rng rng(4);
  Model m = tiny_mlp(rng);
  const auto ds = data::make_gaussian_mixture(300, 3, 4, 2.0, 0.5, 11);
  Tensor x = all_features(ds);
  x.reshape(Shape{ds.size(), 4});
  const auto y = ds.labels();

  const double initial = m.loss(x, y);
  for (int step = 0; step < 60; ++step) {
    m.loss_and_backward(x, y);
    auto params = m.flat_params();
    const auto grad = m.flat_grad();
    for (std::size_t i = 0; i < params.size(); ++i) params[i] -= 0.5f * grad[i];
    m.set_flat_params(params);
  }
  const double trained = m.loss(x, y);
  EXPECT_LT(trained, initial * 0.5);
  EXPECT_GT(m.accuracy(x, y), 0.8);
}

TEST(Model, LossRejectsBadLabels) {
  Rng rng(6);
  Model m = tiny_mlp(rng);
  Tensor x(Shape{2, 4}, 0.1f);
  EXPECT_THROW(m.loss(x, {0, 3}), std::out_of_range);   // 3 classes: labels 0..2
  EXPECT_THROW(m.loss(x, {0}), std::invalid_argument);  // count mismatch
}

TEST(ModelZoo, MnistCnnShapesAndForward) {
  Rng rng(7);
  Model m = make_mnist_cnn(28, 1, 10);
  m.init(rng);
  Tensor x(Shape{2, 1, 28, 28}, 0.1f);
  const Tensor out = m.forward(x);
  EXPECT_EQ(out.shape(), (Shape{2, 10}));
}

TEST(ModelZoo, MnistCnnReducedScale) {
  Rng rng(8);
  Model m = make_mnist_cnn(14, 1, 10);
  m.init(rng);
  Tensor x(Shape{3, 1, 14, 14}, 0.1f);
  EXPECT_EQ(m.forward(x).shape(), (Shape{3, 10}));
}

TEST(ModelZoo, CifarCnnShapes) {
  Rng rng(9);
  Model m = make_cifar_cnn(32, 3, 10);
  m.init(rng);
  Tensor x(Shape{2, 3, 32, 32}, 0.1f);
  EXPECT_EQ(m.forward(x).shape(), (Shape{2, 10}));
}

TEST(ModelZoo, CifarCnnReducedScale) {
  Rng rng(10);
  Model m = make_cifar_cnn(16, 3, 10);
  m.init(rng);
  Tensor x(Shape{2, 3, 16, 16}, 0.1f);
  EXPECT_EQ(m.forward(x).shape(), (Shape{2, 10}));
}

TEST(ModelZoo, FactoryDispatchAndErrors) {
  Rng rng(11);
  Model mlp = make_model("mlp", 8, 1, 10, 16);
  mlp.init(rng);
  Tensor x(Shape{1, 1, 8, 8}, 0.2f);
  EXPECT_EQ(mlp.forward(x).shape(), (Shape{1, 10}));

  Model logistic = make_model("logistic", 8, 1, 10);
  logistic.init(rng);
  EXPECT_EQ(logistic.forward(x).shape(), (Shape{1, 10}));
  EXPECT_EQ(logistic.num_params(), 64u * 10 + 10);

  EXPECT_THROW(make_model("vit", 8, 1, 10), std::invalid_argument);
}

namespace {

std::vector<std::uint32_t> bits_of(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint32_t>(v[i]);
  return out;
}

/// Parameter gradients of a layer-by-layer chain over clones of m's layers
/// that runs every layer's full backward, the first layer's input gradient
/// included, and then drops that gradient.
std::vector<float> full_chain_grads(const Model& m, const Tensor& x, const std::vector<int>& y) {
  std::vector<std::unique_ptr<Layer>> layers;
  for (std::size_t i = 0; i < m.num_layers(); ++i) layers.push_back(m.layer(i).clone());
  Tensor h = x;
  for (auto& l : layers) h = l->forward(h);
  SoftmaxCrossEntropy loss;
  loss.forward(h, y);
  Tensor g = loss.backward();
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) g = (*it)->backward(g);
  EXPECT_EQ(g.shape(), x.shape());  // the input gradient Model::backward skips
  std::vector<float> flat;
  for (auto& l : layers) {
    for (const Param* p : l->params()) {
      flat.insert(flat.end(), p->grad.vec().begin(), p->grad.vec().end());
    }
  }
  return flat;
}

}  // namespace

TEST(Model, BackwardParamGradsMatchFullChainBitForBit) {
  const kernels::Backend entry = kernels::backend();
  Model relu_head;
  relu_head.emplace<Flatten>();
  relu_head.emplace<Linear>(64, 10);
  relu_head.emplace<ReLU>();
  const std::vector<std::pair<std::string, Model>> models = {
      {"mnist_cnn", make_mnist_cnn(8, 1, 10)},
      {"cifar_cnn", make_cifar_cnn(12, 3, 10)},
      {"mlp", make_mlp(64, 16, 10)},
      {"logistic", make_logistic(64, 10)},
      {"flatten_linear_relu", relu_head},
  };
  const std::vector<int> labels = {0, 3, 7, 9};
  for (const auto& [name, proto] : models) {
    const Shape in_shape = name == "cifar_cnn" ? Shape{4, 3, 12, 12} : Shape{4, 1, 8, 8};
    Rng rng(31);
    Model m = proto;
    m.init(rng);
    Tensor x(in_shape);
    rng.fill_normal(x.vec(), 0.0, 1.0);
    for (const auto be : {kernels::Backend::kNaive, kernels::Backend::kBlocked}) {
      kernels::set_backend(be);
      const std::vector<float> want = full_chain_grads(m, x, labels);
      m.loss_and_backward(x, labels);
      EXPECT_EQ(bits_of(m.flat_grad()), bits_of(want))
          << name << " on " << kernels::backend_name(be);
    }
  }
  kernels::set_backend(entry);
}

// Layers take their input by value and the chain moves each tensor along, so
// Model::forward copies the caller's batch exactly once. That copy must stay:
// a worker reuses one batch for 1 + |N_j| gradients, so neither entry point
// may write into the caller's tensor, and a second run on it must give the
// same bits.
TEST(Model, ForwardAndBackwardLeaveTheCallersBatchUnchanged) {
  const std::vector<int> labels = {0, 3, 7, 9};
  for (const auto& [name, proto] : std::vector<std::pair<std::string, Model>>{
           {"cifar_cnn", make_cifar_cnn(12, 3, 10)}, {"mlp", make_mlp(432, 16, 10)}}) {
    Rng rng(7);
    Model m = proto;
    m.init(rng);
    Tensor x(Shape{4, 3, 12, 12});
    rng.fill_normal(x.vec(), 0.0, 1.0);
    const auto x_bits = bits_of(x.vec());
    const Shape x_shape = x.shape();

    const Tensor y1 = m.forward(x);
    const Tensor y2 = m.forward(x);
    EXPECT_EQ(bits_of(y1.vec()), bits_of(y2.vec())) << name;
    EXPECT_EQ(bits_of(x.vec()), x_bits) << name << ": forward wrote into its input";

    const double l1 = m.loss_and_backward(x, labels);
    const auto g1 = m.flat_grad();
    const double l2 = m.loss_and_backward(x, labels);
    EXPECT_EQ(l1, l2) << name;
    EXPECT_EQ(bits_of(m.flat_grad()), bits_of(g1)) << name;
    EXPECT_EQ(bits_of(x.vec()), x_bits) << name << ": loss_and_backward wrote into its input";
    EXPECT_EQ(x.shape(), x_shape) << name;

    // infer_from(0, x) gives forward(x)'s bits; past the last layer it is
    // the identity.
    EXPECT_EQ(bits_of(m.infer_from(0, x).vec()), bits_of(y1.vec())) << name;
    EXPECT_EQ(bits_of(m.infer_from(m.num_layers(), y1).vec()), bits_of(y1.vec())) << name;
    EXPECT_THROW(m.infer_from(m.num_layers() + 1, x), std::out_of_range) << name;
  }
}

TEST(Model, BackwardWithoutParametersIsANoOp) {
  Tensor x(Shape{2, 1, 1, 3}, {0.5f, -1.0f, 2.0f, 1.0f, 0.0f, -3.0f});
  Model relu_only;
  relu_only.emplace<Flatten>();
  relu_only.emplace<ReLU>();
  EXPECT_NO_THROW(relu_only.loss_and_backward(x, {2, 0}));
  EXPECT_TRUE(relu_only.flat_grad().empty());
  Model empty;
  const Tensor logits(Shape{2, 3}, {0.5f, -1.0f, 2.0f, 1.0f, 0.0f, -3.0f});
  EXPECT_NO_THROW(empty.loss_and_backward(logits, {2, 0}));
  EXPECT_EQ(empty.num_params(), 0u);
}

// The packed-mask ReLU against the semantics it replaced: forward
// out = x > 0 ? x : +0 (NaN and -0 become +0), backward passes the gradient
// bits unchanged exactly where x > 0 and writes +0 elsewhere. Lengths cover
// one partial word, a word minus/plus one element, and the 36,864-float conv1
// output of the 12x12 CIFAR CNN at batch 32.
TEST(ReLU, MatchesReferenceOnSpecialValuesAtEveryMaskTail) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {nan,     -nan,     0.0f,      -0.0f,   inf,
                                       -inf,    denorm,   -denorm,   1e-39f,  -1e-39f,
                                       FLT_MIN, -FLT_MIN, FLT_MAX,   -FLT_MAX, 1.5f,
                                       -2.5f,   0x1p-126f, 3.0f};
  for (const std::size_t n : {1, 63, 64, 65, 36864}) {
    Rng rng(n);
    std::vector<float> x(n), g(n);
    rng.fill_normal(x, 0.0, 1.0);
    rng.fill_normal(g, 0.0, 1.0);
    for (std::size_t i = 0; i < n; i += 3) x[i] = specials[(i / 3) % specials.size()];
    for (std::size_t i = 1; i < n; i += 4) g[i] = specials[(i / 4 + 5) % specials.size()];
    std::vector<float> want_y(n), want_g(n);
    for (std::size_t i = 0; i < n; ++i) {
      want_y[i] = x[i] > 0.0f ? x[i] : 0.0f;
      want_g[i] = x[i] > 0.0f ? g[i] : 0.0f;
    }
    ReLU relu;
    const Tensor y = relu.forward(Tensor(Shape{n}, x));
    const Tensor gx = relu.backward(Tensor(Shape{n}, g));
    EXPECT_EQ(bits_of(y.vec()), bits_of(want_y)) << "n=" << n;
    EXPECT_EQ(bits_of(gx.vec()), bits_of(want_g)) << "n=" << n;
    EXPECT_THROW(relu.backward(Tensor(Shape{n + 1})), std::invalid_argument);
  }
}

// Each pooling window starts from its own first element. The old -1e30
// sentinel returned -1e30 for windows whose values are all below it (or all
// -Inf) and routed their gradient to the first slot. NaN, as observed: a NaN
// first element wins its window (no x > NaN holds), a NaN elsewhere never
// does.
TEST(MaxPool2D, WindowsBelowTheOldSentinelKeepTheirMaximum) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct Case {
    std::vector<float> window;  // row-major, 2 x 2
    float max;
    std::size_t argmax;
  };
  const std::vector<Case> cases = {
      {{-3e30f, -2e30f, -5e30f, -4e30f}, -2e30f, 1},
      {{-inf, -inf, -inf, -inf}, -inf, 0},
      {{-inf, -inf, -FLT_MAX, -inf}, -FLT_MAX, 2},
      {{-5e30f, -4e30f, -3e30f, -2e30f}, -2e30f, 3},
      {{nan, 1.0f, 2.0f, 3.0f}, nan, 0},
      {{1.0f, nan, 3.0f, 2.0f}, 3.0f, 2},
      // Ties keep the earlier element (strict >): +0 and -0 compare equal,
      // so the first zero's sign survives, and an all-equal window routes
      // its gradient to slot 0.
      {{-0.0f, 0.0f, 0.0f, -0.0f}, -0.0f, 0},
      {{-1.0f, 0.0f, -0.0f, 0.0f}, 0.0f, 1},
      {{1.5f, 1.5f, 1.5f, 1.5f}, 1.5f, 0},
  };
  for (const auto& c : cases) {
    MaxPool2D pool;
    const Tensor y = pool.forward(Tensor(Shape{1, 1, 2, 2}, c.window));
    ASSERT_EQ(y.numel(), 1u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y[0]), std::bit_cast<std::uint32_t>(c.max))
        << "argmax " << c.argmax << ": got " << y[0];
    const Tensor gx = pool.backward(Tensor(Shape{1, 1, 1, 1}, {1.0f}));
    for (std::size_t i = 0; i < gx.numel(); ++i) {
      EXPECT_EQ(gx[i], i == c.argmax ? 1.0f : 0.0f) << "slot " << i;
    }
  }
}
