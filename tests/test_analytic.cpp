// Analytic ground-truth checks: places where the implementation can be
// compared against closed-form math rather than against itself.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "dp/calibration.hpp"
#include "graph/spectral.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "tensor/ops.hpp"

using namespace pdsl;

TEST(Analytic, RingMetropolisEigenvalues) {
  // Ring with Metropolis weights: w = 1/3 on self and both neighbors, a
  // circulant matrix with eigenvalues (1 + 2 cos(2 pi k / n)) / 3.
  const std::size_t n = 8;
  const auto topo = graph::Graph::ring(n);
  const auto w = graph::Metropolis(topo);
  const auto eig = graph::eigenvalues(w);
  std::vector<double> expected;
  for (std::size_t k = 0; k < n; ++k) {
    expected.push_back(
        (1.0 + 2.0 * std::cos(2.0 * std::numbers::pi * static_cast<double>(k) /
                              static_cast<double>(n))) /
        3.0);
  }
  std::sort(expected.rbegin(), expected.rend());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(eig[i], expected[i], 1e-9);
}

TEST(Analytic, FullGraphMetropolisEigenvalues) {
  // W = (1/M) 1 1^T: eigenvalues are 1 and 0 (multiplicity M-1).
  const auto topo = graph::Graph::full(7);
  const auto eig = graph::eigenvalues(graph::Metropolis(topo));
  EXPECT_NEAR(eig[0], 1.0, 1e-9);
  for (std::size_t i = 1; i < 7; ++i) EXPECT_NEAR(eig[i], 0.0, 1e-9);
}

TEST(Analytic, BipartiteMetropolisSpectrum) {
  // K_{h,h} with Metropolis weights: all degrees h, so w_edge = 1/(h+1) and
  // w_self = 1/(h+1). Eigenvalues: 1, (two blocks of) 1/(h+1) with
  // multiplicity 2(h-1), and -(h-1)/(h+1).
  const std::size_t h = 4;
  const auto topo = graph::Graph::bipartite(2 * h);
  const auto eig = graph::eigenvalues(graph::Metropolis(topo));
  EXPECT_NEAR(eig.front(), 1.0, 1e-9);
  EXPECT_NEAR(eig.back(), -(static_cast<double>(h) - 1.0) / (static_cast<double>(h) + 1.0),
              1e-9);
  // The middle eigenvalues all equal 1/(h+1).
  for (std::size_t i = 1; i + 1 < eig.size(); ++i) {
    EXPECT_NEAR(eig[i], 1.0 / (static_cast<double>(h) + 1.0), 1e-9);
  }
}

TEST(Analytic, ConvolutionHandComputed) {
  // 1x1x3x3 input, 1->1 2x2 kernel, no padding.
  nn::Conv2D conv(1, 1, 2, 0);
  // Set kernel [[1,2],[3,4]], bias 0.5.
  auto params = conv.params();
  params[0]->value.vec() = {1, 2, 3, 4};
  params[1]->value.vec() = {0.5};
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  // y[0,0] = 1*1+2*2+3*4+4*5 + 0.5 = 37.5
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 37.5f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 1), 1 * 2 + 2 * 3 + 3 * 5 + 4 * 6 + 0.5f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 0), 1 * 4 + 2 * 5 + 3 * 7 + 4 * 8 + 0.5f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 1 * 5 + 2 * 6 + 3 * 8 + 4 * 9 + 0.5f);
}

TEST(Analytic, ConvolutionSamePaddingShape) {
  nn::Conv2D conv(2, 3, 3, 1);
  Tensor x(Shape{2, 2, 5, 5}, 0.1f);
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 3, 5, 5}));
  // Kernel larger than padded input must throw.
  nn::Conv2D big(1, 1, 7, 0);
  Tensor tiny(Shape{1, 1, 3, 3}, 0.0f);
  EXPECT_THROW(big.forward(tiny), std::invalid_argument);
}

TEST(Analytic, MaxPoolRoutesGradientToArgmax) {
  nn::MaxPool2D pool(2);
  Tensor x(Shape{1, 1, 2, 2}, {1, 9, 3, 4});
  const Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  Tensor g(Shape{1, 1, 1, 1}, {5.0f});
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);  // the argmax position
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
  EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(Analytic, SoftmaxCrossEntropyAtUniformLogits) {
  // Zero logits: loss = ln(C); gradient = (1/C - onehot)/N.
  nn::SoftmaxCrossEntropy loss;
  Tensor logits(Shape{2, 4}, 0.0f);
  const double value = loss.forward(logits, {1, 3});
  EXPECT_NEAR(value, std::log(4.0), 1e-6);
  const Tensor grad = loss.backward();
  EXPECT_NEAR(grad.at2(0, 0), 0.25 / 2.0, 1e-6);
  EXPECT_NEAR(grad.at2(0, 1), (0.25 - 1.0) / 2.0, 1e-6);
  EXPECT_NEAR(grad.at2(1, 3), (0.25 - 1.0) / 2.0, 1e-6);
  // Gradient rows sum to zero (softmax simplex tangency).
  for (std::size_t r = 0; r < 2; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < 4; ++c) row += grad.at2(r, c);
    EXPECT_NEAR(row, 0.0, 1e-7);
  }
}

TEST(Analytic, Theorem1ClosedFormOnRing) {
  // Ring: every positive weight is 1/3, closed neighborhood size 3.
  // numerator = 2C (3 + 9) sqrt(2 ln(1.25/delta)); denominator =
  // phimin * eps * sqrt(3 * 9).
  const auto topo = graph::Graph::ring(10);
  const auto w = graph::Metropolis(topo);
  dp::Theorem1Params p;
  p.epsilon = 0.2;
  p.delta = 1e-4;
  p.clip = 2.0;
  p.phi_hat_min = 0.25;
  const double expected = 2.0 * 2.0 * (3.0 + 9.0) * std::sqrt(2.0 * std::log(1.25 / 1e-4)) /
                          (0.25 * 0.2 * std::sqrt(27.0));
  EXPECT_NEAR(dp::theorem1_sigma(w, p), expected, 1e-9);
}

TEST(Analytic, JsonFuzzRoundTrip) {
  // Generate random nested documents; dump -> parse must be a fixed point.
  Rng rng(42);
  std::function<json::Value(int)> gen = [&](int depth) -> json::Value {
    const auto kind = rng.uniform_int(0, depth > 2 ? 3 : 5);
    switch (kind) {
      case 0: return json::Value(nullptr);
      case 1: return json::Value(rng.bernoulli(0.5));
      case 2: return json::Value(rng.normal(0.0, 100.0));
      case 3: return json::Value("s" + std::to_string(rng.uniform_int(0, 999)) + "\n\"x\"");
      case 4: {
        json::Array arr;
        const auto n = rng.uniform_int(0, 4);
        for (std::int64_t i = 0; i < n; ++i) arr.push_back(gen(depth + 1));
        return json::Value(std::move(arr));
      }
      default: {
        json::Object obj;
        const auto n = rng.uniform_int(0, 4);
        for (std::int64_t i = 0; i < n; ++i) {
          obj[std::string("k").append(std::to_string(i))] = gen(depth + 1);
        }
        return json::Value(std::move(obj));
      }
    }
  };
  for (int rep = 0; rep < 40; ++rep) {
    const auto doc = gen(0);
    const std::string once = doc.dump();
    const std::string twice = json::parse(once).dump();
    EXPECT_EQ(once, twice);
    // Pretty form parses back to the same compact form.
    EXPECT_EQ(json::parse(doc.dump(2)).dump(), once);
  }
}

TEST(Analytic, TensorReshapeFuzz) {
  Rng rng(7);
  for (int rep = 0; rep < 30; ++rep) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto b = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto c = static_cast<std::size_t>(rng.uniform_int(1, 6));
    Tensor t(Shape{a, b, c});
    rng.fill_normal(t.vec(), 0.0, 1.0);
    Tensor r = t;
    r.reshape(Shape{c * b, a});
    r.reshape(Shape{a, b, c});
    EXPECT_EQ(r.vec(), t.vec());
  }
}
